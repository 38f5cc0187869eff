// Topology-level chaos: who is up and which links are cut.
//
// sim::FaultPlan models everything that happens to a frame in flight
// (iid, Markov-correlated and per-link damage); a ChaosPlan models the
// failures that live above single messages: a player process crashing
// and coming back `restart_ticks` later (or never), and a link
// partitioned for a window of the session. It never touches a frame's
// contents. Time is a logical clock: one tick per attempted send,
// advanced by the plan itself, so every decision is a deterministic
// function of (protocol seed, chaos seed) exactly like the FaultPlan
// stream — the property bench/exp_chaos's determinism contract and
// tools/replay both rely on.
//
// The recovery story (docs/ROBUSTNESS.md § crash faults): the channel
// asks the plan `on_send_attempt(a, b)` before metering; a crashed
// endpoint or partitioned link throws PlayerCrashError /
// LinkPartitionedError BEFORE any bits are charged. The session layer in
// multiparty/coordinator.h catches, waits out the outage as charged
// latency rounds, and resumes the protocol from its last core::Checkpoint
// instead of re-running the attempt — metering the replayed bits
// separately. A player that never returns (max_crashes exceeded, or a
// crash_prob=1 / max_crashes=0 schedule) degrades the session honestly.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace setint::sim {

// Thrown by ChaosPlan::on_send_attempt when either endpoint of the link is
// down. `revive_tick` is the logical tick at which the player is up again;
// meaningless when `permanent` (the player never returns).
class PlayerCrashError : public std::runtime_error {
 public:
  PlayerCrashError(std::size_t player, std::uint64_t revive_tick,
                   bool permanent);

  std::size_t player;
  std::uint64_t revive_tick;
  bool permanent;
};

// Thrown by ChaosPlan::on_send_attempt while a partition window covers the
// link. `heal_tick` is the first tick at which every covering window has
// ended.
class LinkPartitionedError : public std::runtime_error {
 public:
  LinkPartitionedError(std::size_t a, std::size_t b, std::uint64_t heal_tick);

  std::size_t a;
  std::size_t b;
  std::uint64_t heal_tick;
};

// A player never returns once it has crashed more than `max_crashes`
// times. {crash_prob = 1.0, max_crashes = 0} models a player that dies on
// first contact and never comes back.
inline constexpr std::uint64_t kUnlimitedCrashes = ~std::uint64_t{0};

// Per-player crash schedule: before each attempted send touching the
// player, it crashes with `crash_prob` and stays down for `restart_ticks`
// logical ticks.
struct CrashSchedule {
  double crash_prob = 0.0;
  std::uint64_t restart_ticks = 4;
  std::uint64_t max_crashes = kUnlimitedCrashes;
  bool operator==(const CrashSchedule&) const = default;
};

// Matches every link when used as PartitionWindow::a.
inline constexpr std::size_t kAllLinks = static_cast<std::size_t>(-1);

// The link {a, b} (unordered; a == kAllLinks matches every link) is
// unusable for ticks in the half-open window [start_tick, end_tick).
struct PartitionWindow {
  std::size_t a = 0;
  std::size_t b = 1;
  std::uint64_t start_tick = 0;
  std::uint64_t end_tick = 0;
  bool operator==(const PartitionWindow&) const = default;
};

// Declarative chaos configuration. `crash` applies to every player unless
// overridden per player in `crash_overrides`. All probabilities are
// validated at ChaosPlan construction (std::invalid_argument outside
// [0, 1]).
struct ChaosSpec {
  std::size_t players = 2;
  std::uint64_t seed = 0xC405;
  CrashSchedule crash;
  std::vector<std::pair<std::size_t, CrashSchedule>> crash_overrides;
  std::vector<PartitionWindow> partitions;

  bool enabled() const;
  bool operator==(const ChaosSpec&) const = default;
};

// Running totals over the whole plan (all players, all links).
struct ChaosStats {
  std::uint64_t ticks = 0;              // attempted sends seen
  std::uint64_t crashes = 0;            // transient crash events
  std::uint64_t permanent_losses = 0;   // players that will never return
  std::uint64_t blocked_sends = 0;      // attempts refused (down/partition)
  std::uint64_t partition_blocks = 0;   // attempts refused by a window
};

class ChaosPlan {
 public:
  explicit ChaosPlan(const ChaosSpec& spec) : ChaosPlan(spec, 0) {}

  // Mixing in the protocol seed keeps independent sessions' chaos streams
  // independent while staying reproducible from the two seeds alone.
  ChaosPlan(const ChaosSpec& spec, std::uint64_t protocol_seed);

  const ChaosSpec& spec() const { return spec_; }
  // The protocol seed this plan was constructed with — recorded in replay
  // contexts so tools/replay can rebuild an identical plan.
  std::uint64_t protocol_seed() const { return protocol_seed_; }
  const ChaosStats& stats() const { return stats_; }
  // True when some player can crash or some window can cut a link.
  bool enabled() const { return spec_.enabled(); }

  std::uint64_t now() const { return now_; }
  // Jumps the logical clock forward (never backward); the recovery layer
  // calls this after charging the wait as latency rounds.
  void advance_to(std::uint64_t tick);

  // One logical tick per attempted send on link (a, b). Evaluates both
  // endpoints' crash schedules and the partition calendar; throws
  // PlayerCrashError / LinkPartitionedError when the send cannot happen.
  // Nothing is thrown for a healthy link.
  void on_send_attempt(std::size_t a, std::size_t b);

  bool player_dead(std::size_t p) const;

 private:
  struct PlayerState {
    CrashSchedule sched;
    util::Rng rng;
    std::uint64_t down_until = 0;  // player is down for ticks < down_until
    std::uint64_t crashes = 0;
    bool dead = false;

    PlayerState(const CrashSchedule& s, std::uint64_t seed)
        : sched(s), rng(seed) {}
  };

  PlayerState& player_state(std::size_t p);
  void check_crash(std::size_t p);

  ChaosSpec spec_;
  std::uint64_t protocol_seed_ = 0;
  std::uint64_t plan_seed_;
  std::uint64_t now_ = 0;
  std::vector<PlayerState> players_;
  ChaosStats stats_;
};

}  // namespace setint::sim

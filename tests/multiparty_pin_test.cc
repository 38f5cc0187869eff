// Behaviour pins for both multiparty topologies under every pair policy.
//
// One table over {coordinator, tournament} x {clean, iid faults, a player
// that never returns, a dead link behind a breaker, a drained retry pool
// with admission control, a Byzantine player, refuse-on-exhaustion under a
// tiny bit budget}. Each row pins the intersection, every MultipartyResult
// field, the network's cost totals, and a fold over the sorted tracer
// counter map; a handful of named counters are pinned on their own so a
// failure reads as more than a changed hash.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/resource_limits.h"
#include "multiparty/coordinator.h"
#include "multiparty/tournament.h"
#include "obs/tracer.h"
#include "sim/adversary.h"
#include "sim/chaos.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/randomness.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

enum class Topology { kCoordinator, kTournament };

enum class Case {
  kClean,
  kIidFaults,
  kDeadPlayer,
  kDeadLink,
  kDrainedPool,
  kByzantine,
  kRefuse,
};

// FNV-1a over 64-bit words, so the pins do not depend on library hashing.
struct Fold {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void text(const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    word(s.size());
  }
};

const char* const kNamedCounters[] = {
    "mp.pairwise_runs",   "mp.degraded_pairs", "mp.skipped_matches",
    "mp.byzantine_pairs", "retry.attempts",    "breaker.opens",
};

struct Observed {
  std::size_t intersection_size = 0;
  std::uint64_t intersection_fold = 0;
  std::size_t levels = 0;
  std::uint64_t total_repetitions = 0;
  std::uint64_t broadcast_bits = 0;
  std::uint64_t degraded_pairs = 0;
  bool degraded = false;
  std::uint64_t total_restarts = 0;
  std::uint64_t total_bits_replayed = 0;
  std::uint64_t dead_player_skips = 0;
  std::uint64_t shed_pairs = 0;
  std::uint64_t refused_pairs = 0;
  std::uint64_t pool_retry_denials = 0;
  std::uint64_t breaker_opens = 0;
  std::vector<std::uint64_t> per_player_degraded;
  std::uint64_t total_bits = 0;
  std::uint64_t rounds = 0;
  std::uint64_t max_player_bits = 0;
  std::uint64_t counters_fold = 0;
  std::vector<std::uint64_t> named;  // kNamedCounters, in order
};

Observed run_case(Topology topology, Case c) {
  std::size_t players = 6;
  std::size_t k = 24;
  std::size_t shared_elems = 6;
  if (c == Case::kClean) {
    // Small sets give groups of 2k = 8 < 9 players, so both topologies
    // recurse over a second level.
    players = 9;
    k = 4;
    shared_elems = 2;
  }
  const std::uint64_t universe = std::uint64_t{1} << 14;
  util::Rng wrng(0x91A + static_cast<std::uint64_t>(c));
  const util::MultiSetInstance inst =
      util::random_multi_sets(wrng, universe, players, k, shared_elems);

  multiparty::MultipartyParams params;
  sim::FaultSpec fault_spec;
  sim::ChaosSpec chaos_spec;
  chaos_spec.players = players;
  sim::AdversarySpec adversary_spec;
  adversary_spec.attack = sim::AttackClass::kNone;
  bool use_faults = false;
  bool use_chaos = false;
  switch (c) {
    case Case::kClean:
      params.broadcast_result = true;
      break;
    case Case::kIidFaults:
      fault_spec.flip_per_bit = 0.004;
      fault_spec.drop_prob = 0.03;
      fault_spec.seed = 0xF1;
      use_faults = true;
      params.retry.max_attempts = 6;
      break;
    case Case::kDeadPlayer: {
      sim::CrashSchedule dead;
      dead.crash_prob = 1.0;
      dead.max_crashes = 0;
      // Player 0 dies on first contact: the pair that meets it degrades,
      // and every later pair that includes it is skipped.
      chaos_spec.crash_overrides.emplace_back(0, dead);
      use_chaos = true;
      break;
    }
    case Case::kDeadLink:
      use_faults = true;
      params.retry.max_attempts = 8;
      params.retry.degraded_attempts = 1;
      params.breaker.failure_threshold = 2;
      break;
    case Case::kDrainedPool:
      fault_spec.drop_prob = 1.0;
      fault_spec.seed = 7;
      use_faults = true;
      params.retry.max_attempts = 16;
      params.retry.degraded_attempts = 1;
      params.retry_pool_attempts = 2;
      params.admission.critical_fraction = 1.0;
      break;
    case Case::kByzantine:
      adversary_spec.attack = sim::AttackClass::kMixed;
      adversary_spec.attack_prob = 1.0;
      adversary_spec.frame_bits = 1u << 12;
      adversary_spec.lie_universe = universe;
      adversary_spec.seed = 0xB5;
      params.byzantine_player = 2;
      params.retry.max_attempts = 4;
      params.retry.degraded_attempts = 2;
      params.limits = core::ResourceLimits::for_workload(universe, k);
      break;
    case Case::kRefuse:
      params.budget.max_bits = 16;
      params.budget.refuse_on_exhaustion = true;
      break;
  }

  sim::FaultPlan faults(fault_spec);
  sim::ChaosPlan chaos(chaos_spec, 0xC4A05);
  if (c == Case::kDeadLink) {
    sim::FaultSpec drop_all;
    drop_all.drop_prob = 1.0;
    drop_all.seed = 99;
    // (0, 2) is a coordinator pair and an uncertified tournament match;
    // (0, 4) is a coordinator pair and the tournament's certified root.
    faults.set_link_faults(0, 2, drop_all);
    faults.set_link_faults(0, 4, drop_all);
  }
  sim::Adversary adversary(adversary_spec);
  if (use_faults) params.fault_plan = &faults;
  if (use_chaos) params.chaos = &chaos;
  if (adversary_spec.attack != sim::AttackClass::kNone) {
    params.adversary = &adversary;
  }

  obs::Tracer tracer;
  sim::Network network(players);
  network.set_tracer(&tracer);
  sim::SharedRandomness shared(0x5EED + static_cast<std::uint64_t>(c));
  const multiparty::MultipartyResult r =
      topology == Topology::kCoordinator
          ? multiparty::coordinator_intersection(network, shared, universe,
                                                 inst.sets, params)
          : multiparty::tournament_intersection(network, shared, universe,
                                                inst.sets, params);

  // Whatever the policy did, the answer keeps the superset contract.
  EXPECT_TRUE(util::is_subset(inst.expected_intersection, r.intersection));
  if (!r.degraded) {
    EXPECT_EQ(r.intersection, inst.expected_intersection);
  }

  Observed o;
  o.intersection_size = r.intersection.size();
  Fold set_fold;
  for (const std::uint64_t x : r.intersection) set_fold.word(x);
  o.intersection_fold = set_fold.h;
  o.levels = r.levels;
  o.total_repetitions = r.total_repetitions;
  o.broadcast_bits = r.broadcast_bits;
  o.degraded_pairs = r.degraded_pairs;
  o.degraded = r.degraded;
  o.total_restarts = r.total_restarts;
  o.total_bits_replayed = r.total_bits_replayed;
  o.dead_player_skips = r.dead_player_skips;
  o.shed_pairs = r.shed_pairs;
  o.refused_pairs = r.refused_pairs;
  o.pool_retry_denials = r.pool_retry_denials;
  o.breaker_opens = r.breaker_opens;
  o.per_player_degraded = r.per_player_degraded;
  o.total_bits = network.total_bits();
  o.rounds = network.rounds();
  o.max_player_bits = network.max_player_bits();
  const auto& counters = tracer.metrics().counters();
  Fold counter_fold;
  for (const auto& [name, counter] : counters) {
    counter_fold.text(name);
    counter_fold.word(counter.value());
  }
  o.counters_fold = counter_fold.h;
  for (const char* name : kNamedCounters) {
    const auto it = counters.find(name);
    o.named.push_back(it == counters.end() ? 0 : it->second.value());
  }
  return o;
}

struct Pin {
  const char* name;
  Topology topology;
  Case c;
  Observed want;
};

// Each `want` lists the Observed fields in declaration order: intersection
// size and fold, levels, repetitions, broadcast bits, degraded pairs and
// flag, restarts, bits replayed, dead skips, shed pairs, refused pairs,
// pool denials, breaker opens, per-player degraded counts,
// network bits / rounds / max player bits, the counter fold, and the
// kNamedCounters values. Recorded from the implementation that kept a
// separate pair policy in each topology; tournament/DeadPlayer's counter
// fold was re-derived when uncertified matches began counting crash and
// partition blocks as chaos.* rather than retry.decode_failures.
// clang-format off
const Pin kPins[] = {
    {"coordinator/Clean", Topology::kCoordinator, Case::kClean,
     {2u, 0x08b0e2f0f30710e5ull, 2u, 8u, 408u, 0u, false, 0u, 0u, 0u, 0u, 0u, 0u, 0u, {0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u}, 1312u, 21u, 1312u, 0xed810da0b15cea4cull, {8u, 0u, 0u, 0u, 0u, 0u}}},
    {"coordinator/IidFaults", Topology::kCoordinator, Case::kIidFaults,
     {6u, 0xbe5135864f685650ull, 1u, 5u, 0u, 0u, false, 0u, 0u, 0u, 0u, 0u, 0u, 0u, {0u, 0u, 0u, 0u, 0u, 0u}, 10543u, 28u, 10543u, 0xd35a66e13abaa855ull, {5u, 0u, 0u, 0u, 0u, 0u}}},
    {"coordinator/DeadPlayer", Topology::kCoordinator, Case::kDeadPlayer,
     {24u, 0xcde648ef6d23624dull, 1u, 1u, 0u, 5u, true, 0u, 0u, 4u, 0u, 0u, 0u, 0u, {5u, 1u, 1u, 1u, 1u, 1u}, 0u, 0u, 0u, 0x4d88149a424273c4ull, {1u, 5u, 0u, 0u, 0u, 0u}}},
    {"coordinator/DeadLink", Topology::kCoordinator, Case::kDeadLink,
     {6u, 0xb4ee1c72c18563d1ull, 1u, 7u, 0u, 2u, true, 0u, 0u, 0u, 0u, 0u, 0u, 2u, {2u, 0u, 1u, 0u, 1u, 0u}, 8154u, 22u, 8154u, 0xdf8836ceaf50663bull, {5u, 2u, 0u, 0u, 0u, 0u}}},
    {"coordinator/DrainedPool", Topology::kCoordinator, Case::kDrainedPool,
     {24u, 0x08254ca3a2cd6b86ull, 1u, 3u, 0u, 5u, true, 0u, 0u, 0u, 4u, 0u, 1u, 0u, {5u, 1u, 1u, 1u, 1u, 1u}, 1848u, 25u, 1848u, 0xa18803c5fcbff543ull, {1u, 5u, 0u, 0u, 0u, 0u}}},
    {"coordinator/Byzantine", Topology::kCoordinator, Case::kByzantine,
     {6u, 0xaaaba3d033df6d3cull, 1u, 8u, 0u, 1u, true, 0u, 0u, 0u, 0u, 0u, 0u, 0u, {1u, 0u, 1u, 0u, 0u, 0u}, 21634u, 22u, 21634u, 0x55d26d4a60bb3f75ull, {5u, 1u, 0u, 1u, 0u, 0u}}},
    {"coordinator/Refuse", Topology::kCoordinator, Case::kRefuse,
     {24u, 0x7e8ecee2e49dc7c4ull, 1u, 5u, 0u, 5u, true, 0u, 0u, 0u, 0u, 5u, 0u, 0u, {5u, 1u, 1u, 1u, 1u, 1u}, 2522u, 6u, 2522u, 0x8779165d0268c706ull, {5u, 5u, 0u, 0u, 0u, 0u}}},
    {"tournament/Clean", Topology::kTournament, Case::kClean,
     {2u, 0x08b0e2f0f30710e5ull, 2u, 2u, 0u, 0u, false, 0u, 0u, 0u, 0u, 0u, 0u, 0u, {0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u}, 690u, 28u, 318u, 0xa86d40640011392cull, {2u, 0u, 0u, 0u, 0u, 0u}}},
    {"tournament/IidFaults", Topology::kTournament, Case::kIidFaults,
     {6u, 0xbe5135864f685650ull, 1u, 1u, 0u, 0u, false, 0u, 0u, 0u, 0u, 0u, 0u, 0u, {0u, 0u, 0u, 0u, 0u, 0u}, 6979u, 48u, 2720u, 0x5a02c16500b6347dull, {1u, 0u, 0u, 0u, 0u, 0u}}},
    {"tournament/DeadPlayer", Topology::kTournament, Case::kDeadPlayer,
     {24u, 0xcde648ef6d23624dull, 1u, 0u, 0u, 3u, true, 0u, 0u, 2u, 0u, 0u, 0u, 0u, {3u, 1u, 1u, 0u, 1u, 0u}, 1799u, 12u, 941u, 0xafa50ecf7a585be0ull, {0u, 3u, 3u, 0u, 0u, 0u}}},
    {"tournament/DeadLink", Topology::kTournament, Case::kDeadLink,
     {6u, 0xb4ee1c72c18563d1ull, 1u, 2u, 0u, 2u, true, 0u, 0u, 0u, 0u, 0u, 0u, 2u, {2u, 0u, 1u, 0u, 1u, 0u}, 5685u, 42u, 2591u, 0x03302667e06e3bbaull, {1u, 2u, 1u, 0u, 1u, 1u}}},
    {"tournament/DrainedPool", Topology::kTournament, Case::kDrainedPool,
     {24u, 0x08254ca3a2cd6b86ull, 1u, 0u, 0u, 5u, true, 0u, 0u, 0u, 4u, 0u, 1u, 0u, {3u, 1u, 2u, 1u, 2u, 1u}, 1653u, 7u, 1653u, 0x57538b0f14cd3488ull, {0u, 5u, 5u, 0u, 2u, 0u}}},
    {"tournament/Byzantine", Topology::kTournament, Case::kByzantine,
     {6u, 0xaaaba3d033df6d3cull, 1u, 1u, 0u, 2u, true, 0u, 0u, 0u, 0u, 0u, 0u, 0u, {1u, 0u, 2u, 1u, 0u, 0u}, 27767u, 26u, 25800u, 0x089ed9d6ebf48a00ull, {1u, 2u, 2u, 2u, 6u, 0u}}},
    {"tournament/Refuse", Topology::kTournament, Case::kRefuse,
     {6u, 0xf3ac04b5bd030bd4ull, 1u, 1u, 0u, 1u, true, 0u, 0u, 0u, 0u, 1u, 0u, 0u, {1u, 0u, 0u, 0u, 1u, 0u}, 2812u, 24u, 1047u, 0x8f5e12b24b9e04d6ull, {1u, 1u, 0u, 0u, 0u, 0u}}},
};
// clang-format on

TEST(MultipartyPin, EveryTopologyAndPolicyMatchesItsPin) {
  for (const Pin& pin : kPins) {
    SCOPED_TRACE(pin.name);
    const Observed got = run_case(pin.topology, pin.c);
    const Observed& want = pin.want;
    for (std::size_t i = 0; i < std::size(kNamedCounters); ++i) {
      EXPECT_EQ(got.named[i], want.named[i]) << kNamedCounters[i];
    }
    EXPECT_EQ(got.intersection_size, want.intersection_size);
    EXPECT_EQ(got.intersection_fold, want.intersection_fold);
    EXPECT_EQ(got.levels, want.levels);
    EXPECT_EQ(got.total_repetitions, want.total_repetitions);
    EXPECT_EQ(got.broadcast_bits, want.broadcast_bits);
    EXPECT_EQ(got.degraded_pairs, want.degraded_pairs);
    EXPECT_EQ(got.degraded, want.degraded);
    EXPECT_EQ(got.total_restarts, want.total_restarts);
    EXPECT_EQ(got.total_bits_replayed, want.total_bits_replayed);
    EXPECT_EQ(got.dead_player_skips, want.dead_player_skips);
    EXPECT_EQ(got.shed_pairs, want.shed_pairs);
    EXPECT_EQ(got.refused_pairs, want.refused_pairs);
    EXPECT_EQ(got.pool_retry_denials, want.pool_retry_denials);
    EXPECT_EQ(got.breaker_opens, want.breaker_opens);
    EXPECT_EQ(got.per_player_degraded, want.per_player_degraded);
    EXPECT_EQ(got.total_bits, want.total_bits);
    EXPECT_EQ(got.rounds, want.rounds);
    EXPECT_EQ(got.max_player_bits, want.max_player_bits);
    EXPECT_EQ(got.counters_fold, want.counters_fold);
  }
}

}  // namespace
}  // namespace setint

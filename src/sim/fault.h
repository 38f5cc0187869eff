// Deterministic fault injection for the simulated transport: the one model
// of what happens to a frame in flight.
//
// A FaultPlan is a seeded adversarial model of an unreliable link: the
// Channel hands it every in-flight frame, with the link's endpoints, and
// the plan may flip bits, truncate the frame, drop it, duplicate it
// (charged as a second transmission), or delay it (charged as extra
// latency rounds). Three layers draw, in this order, on each delivery:
//   1. the iid knobs of the plan's FaultSpec, from the plan's own Rng;
//   2. a Gilbert–Elliott burst step (FaultSpec::burst) on the link, from a
//      per-link stream, so damage arrives in bursts rather than iid;
//   3. the link's overlay (set_link_faults), an extra iid FaultSpec for
//      one link only — asymmetric or dead links.
// Every stream is a pure function of the plan seed (and the link), so a
// run is reproducible from (protocol seed, fault seed) alone — the
// property the BENCH_faults determinism contract pins. Who is up and
// which links are cut is sim::ChaosPlan's business, not this plan's.
//
// The protocols' correctness story under faults (docs/ROBUSTNESS.md):
// the channel's integrity frame corrects a single flipped bit in place;
// other damage fails its 32-bit integrity check and the frame is resent
// at the link; a frame still damaged after Channel::kMaxResends resends
// makes send() throw ChannelIntegrityError (the decoder-level bounds
// checks back the checksum up for its residual collision window); the
// retry layer in multiparty/coordinator.h catches, re-runs with fresh
// randomness, and after budget exhaustion degrades to an honestly-flagged
// superset. The plan draws once per delivered bit, so the frame's length
// (checksum, syndrome and parity included) fixes how much of the stream a
// delivery consumes.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "util/bitio.h"
#include "util/rng.h"

namespace setint::sim {

// Two-state Markov loss/corruption channel (Gilbert–Elliott). Each link
// starts in the good state; before each frame it transitions
// good->bad with p_good_to_bad and bad->good with p_bad_to_good, then the
// frame is dropped with loss_{state} or has each bit flipped with
// flip_{state}. Matching the stationary average of the iid knobs while
// concentrating the damage into bursts is the point — bursts are what
// break naive retry loops.
struct GilbertElliott {
  double p_good_to_bad = 0.0;
  double p_bad_to_good = 1.0;
  double loss_good = 0.0;
  double loss_bad = 0.0;
  double flip_good = 0.0;
  double flip_bad = 0.0;

  bool enabled() const {
    return (p_good_to_bad > 0.0 &&
            (loss_bad > 0.0 || flip_bad > 0.0)) ||
           loss_good > 0.0 || flip_good > 0.0;
  }
  bool operator==(const GilbertElliott&) const = default;
};

// Per-message fault probabilities, all in [0, 1] (validated at FaultPlan
// construction, std::invalid_argument otherwise). Default: no faults.
struct FaultSpec {
  double flip_per_bit = 0.0;    // each delivered bit flips independently
  double truncate_prob = 0.0;   // message cut at a uniform bit position
  double drop_prob = 0.0;       // message delivered as an empty buffer
  double duplicate_prob = 0.0;  // message transmitted (and billed) twice
  double delay_prob = 0.0;      // message charged `delay_rounds` extra rounds
  std::uint64_t delay_rounds = 1;
  GilbertElliott burst;         // per-link bursts, drawn after the iid knobs
  std::uint64_t seed = 0x0fa1;  // seeds the plan's private Rng

  bool enabled() const {
    return flip_per_bit > 0.0 || truncate_prob > 0.0 || drop_prob > 0.0 ||
           duplicate_prob > 0.0 || delay_prob > 0.0 || burst.enabled();
  }
  bool operator==(const FaultSpec&) const = default;
};

// One overlay of FaultPlan::set_link_faults, endpoints ordered a < b.
struct LinkFaults {
  std::size_t a = 0;
  std::size_t b = 1;
  FaultSpec spec;
  bool operator==(const LinkFaults&) const = default;
};

// Running totals over every message the plan has touched, all three
// layers together.
struct FaultStats {
  std::uint64_t messages_seen = 0;
  std::uint64_t faults_injected = 0;  // fault events (a flipped message is 1)
  std::uint64_t bits_flipped = 0;
  std::uint64_t flipped_messages = 0;
  std::uint64_t truncated_messages = 0;
  std::uint64_t truncated_bits = 0;
  std::uint64_t dropped_messages = 0;
  std::uint64_t duplicated_messages = 0;
  std::uint64_t delayed_messages = 0;
  std::uint64_t delay_rounds_charged = 0;
  std::uint64_t burst_state_entries = 0;  // good->bad transitions, all links
};

// What happened to one message; returned so the Channel can meter the
// extra cost (duplicate bits, delay rounds) and attribute it to the
// current tracer phase.
struct AppliedFaults {
  std::uint64_t bits_flipped = 0;
  std::uint64_t truncated_bits = 0;  // bits removed from the tail
  bool dropped = false;
  bool duplicated = false;
  std::uint64_t delay_rounds = 0;

  std::uint64_t events() const {
    return (bits_flipped > 0 ? 1u : 0u) + (truncated_bits > 0 ? 1u : 0u) +
           (dropped ? 1u : 0u) + (duplicated ? 1u : 0u) +
           (delay_rounds > 0 ? 1u : 0u);
  }
};

class FaultPlan {
 public:
  FaultPlan() : FaultPlan(FaultSpec{}) {}
  explicit FaultPlan(const FaultSpec& spec);

  // Installs an overlay on the unordered link {a, b}: an extra iid model
  // drawn after the plan's own knobs and burst, on that link only. Its
  // stream is derived from the plan seed, the overlay's seed and the link,
  // so two links sharing a spec draw independently. The overlay is
  // validated like the plan's spec; it cannot carry a burst (set
  // FaultSpec::burst on the plan) and a == b is rejected. The plan has no
  // player count: a run checks players_needed() against its own.
  void set_link_faults(std::size_t a, std::size_t b, const FaultSpec& spec);

  // The fewest players a run must have for every overlay to name one of
  // its links: the highest overlay endpoint + 1, or 0 with no overlay.
  std::size_t players_needed() const { return players_needed_; }
  // The installed overlays, one per link, the latest installed last.
  const std::vector<LinkFaults>& overlays() const { return overlays_; }

  const FaultSpec& spec() const { return spec_; }
  const FaultStats& stats() const { return stats_; }
  // True when some layer can damage a frame: the channel frames then.
  bool enabled() const { return enabled_; }

  // Mutates `payload`, in flight on link {a, b}, into what the receiver
  // observes and returns what was injected, all layers merged. Within one
  // iid layer drop wins over truncation and flips apply to the surviving
  // prefix. Called once per delivery (a resend is a delivery) in order,
  // which keeps every stream deterministic. A plan with no burst and no
  // overlay touches no per-link state.
  AppliedFaults apply(util::BitBuffer& payload, std::size_t a = 0,
                      std::size_t b = 1);

 private:
  struct Link {
    util::Rng burst_rng;
    bool bad = false;  // Gilbert–Elliott state
    FaultSpec overlay;
    util::Rng overlay_rng{0};

    explicit Link(std::uint64_t burst_seed) : burst_rng(burst_seed) {}
  };
  using LinkKey = std::pair<std::size_t, std::size_t>;

  // The link's state, created on first use when the plan has a burst;
  // nullptr when the link has neither burst nor overlay. A plan with
  // neither anywhere returns before touching the map.
  Link* link_state(std::size_t a, std::size_t b);
  Link& emplace_link(const LinkKey& key);

  FaultSpec spec_;
  util::Rng rng_;
  FaultStats stats_;
  bool enabled_ = false;
  std::size_t players_needed_ = 0;
  std::vector<LinkFaults> overlays_;
  std::map<LinkKey, Link> links_;
};

}  // namespace setint::sim

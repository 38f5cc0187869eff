// Deterministic fault injection for the simulated transport.
//
// A FaultPlan is a seeded adversarial model of an unreliable link: the
// Channel hands it every in-flight frame and the plan may flip bits,
// truncate the frame, drop it, duplicate it (charged as a second
// transmission), or delay it (charged as extra latency rounds). All
// decisions come from the plan's own Rng, so a run is reproducible from
// (protocol seed, fault seed) alone — the property the BENCH_faults
// determinism contract pins.
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

#include "util/bitio.h"
#include "util/rng.h"

namespace setint::sim {

// Per-message fault probabilities, all in [0, 1]. Default: no faults.
struct FaultSpec {
  double flip_per_bit = 0.0;    // each delivered bit flips independently
  double truncate_prob = 0.0;   // message cut at a uniform bit position
  double drop_prob = 0.0;       // message delivered as an empty buffer
  double duplicate_prob = 0.0;  // message transmitted (and billed) twice
  double delay_prob = 0.0;      // message charged `delay_rounds` extra rounds
  std::uint64_t delay_rounds = 1;
  std::uint64_t seed = 0x0fa1;  // seeds the plan's private Rng

  bool enabled() const {
    return flip_per_bit > 0.0 || truncate_prob > 0.0 || drop_prob > 0.0 ||
           duplicate_prob > 0.0 || delay_prob > 0.0;
  }
};

// Running totals over every message the plan has touched.
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

  const FaultSpec& spec() const { return spec_; }
  const FaultStats& stats() const { return stats_; }
  bool enabled() const { return spec_.enabled(); }

  // Mutates `payload` into what the receiver observes and returns what was
  // injected. Drop wins over truncation; flips apply to the surviving
  // prefix. Called once per delivery (a resend is a delivery) in order,
  // which keeps the fault stream deterministic.
  AppliedFaults apply(util::BitBuffer& payload);

 private:
  FaultSpec spec_;
  util::Rng rng_;
  FaultStats stats_;
};

}  // namespace setint::sim

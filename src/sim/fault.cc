#include "sim/fault.h"

#include <stdexcept>

namespace setint::sim {

namespace {

void check_probability(double p, const char* field) {
  if (!(p >= 0.0) || !(p <= 1.0)) {
    throw std::invalid_argument(std::string("FaultSpec: ") + field +
                                " must be in [0, 1]");
  }
}

}  // namespace

FaultPlan::FaultPlan(const FaultSpec& spec) : spec_(spec), rng_(spec.seed) {
  check_probability(spec.flip_per_bit, "flip_per_bit");
  check_probability(spec.truncate_prob, "truncate_prob");
  check_probability(spec.drop_prob, "drop_prob");
  check_probability(spec.duplicate_prob, "duplicate_prob");
  check_probability(spec.delay_prob, "delay_prob");
}

AppliedFaults FaultPlan::apply(util::BitBuffer& payload) {
  AppliedFaults applied;
  stats_.messages_seen += 1;
  if (!enabled()) return applied;

  if (spec_.drop_prob > 0.0 && rng_.unit() < spec_.drop_prob) {
    applied.dropped = true;
    payload.clear();
  } else if (spec_.truncate_prob > 0.0 && !payload.empty() &&
             rng_.unit() < spec_.truncate_prob) {
    // Cut at a uniform position in [0, size): at least one bit is lost.
    const std::size_t keep =
        static_cast<std::size_t>(rng_.below(payload.size_bits()));
    applied.truncated_bits = payload.size_bits() - keep;
    payload.truncate(keep);
  }

  if (spec_.flip_per_bit > 0.0) {
    for (std::size_t i = 0; i < payload.size_bits(); ++i) {
      if (rng_.unit() < spec_.flip_per_bit) {
        payload.toggle_bit(i);
        applied.bits_flipped += 1;
      }
    }
  }

  if (spec_.duplicate_prob > 0.0 && rng_.unit() < spec_.duplicate_prob) {
    applied.duplicated = true;
  }
  if (spec_.delay_prob > 0.0 && rng_.unit() < spec_.delay_prob) {
    applied.delay_rounds = spec_.delay_rounds;
  }

  stats_.faults_injected += applied.events();
  stats_.bits_flipped += applied.bits_flipped;
  if (applied.bits_flipped > 0) stats_.flipped_messages += 1;
  if (applied.dropped) {
    stats_.dropped_messages += 1;
  } else if (applied.truncated_bits > 0) {
    stats_.truncated_messages += 1;
    stats_.truncated_bits += applied.truncated_bits;
  }
  if (applied.duplicated) stats_.duplicated_messages += 1;
  if (applied.delay_rounds > 0) {
    stats_.delayed_messages += 1;
    stats_.delay_rounds_charged += applied.delay_rounds;
  }
  return applied;
}

}  // namespace setint::sim

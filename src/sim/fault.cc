#include "sim/fault.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace setint::sim {

namespace {

void check_probability(double p, const char* field) {
  if (!(p >= 0.0) || !(p <= 1.0)) {
    throw std::invalid_argument(std::string("FaultSpec: ") + field +
                                " must be in [0, 1]");
  }
}

void validate(const FaultSpec& spec) {
  check_probability(spec.flip_per_bit, "flip_per_bit");
  check_probability(spec.truncate_prob, "truncate_prob");
  check_probability(spec.drop_prob, "drop_prob");
  check_probability(spec.duplicate_prob, "duplicate_prob");
  check_probability(spec.delay_prob, "delay_prob");
  check_probability(spec.burst.p_good_to_bad, "burst.p_good_to_bad");
  check_probability(spec.burst.p_bad_to_good, "burst.p_bad_to_good");
  check_probability(spec.burst.loss_good, "burst.loss_good");
  check_probability(spec.burst.loss_bad, "burst.loss_bad");
  check_probability(spec.burst.flip_good, "burst.flip_good");
  check_probability(spec.burst.flip_bad, "burst.flip_bad");
}

// Flips each bit of `payload` with probability `p`; returns the count.
std::uint64_t flip_bits(util::BitBuffer& payload, double p, util::Rng& rng) {
  std::uint64_t flipped = 0;
  for (std::size_t i = 0; i < payload.size_bits(); ++i) {
    if (rng.unit() < p) {
      payload.toggle_bit(i);
      flipped += 1;
    }
  }
  return flipped;
}

// One draw of the iid knobs of `spec` from `rng`, merged into `applied`.
// Drop wins over truncation; flips apply to the surviving prefix.
void draw_iid(const FaultSpec& spec, util::Rng& rng, util::BitBuffer& payload,
              AppliedFaults& applied) {
  if (spec.drop_prob > 0.0 && rng.unit() < spec.drop_prob) {
    applied.dropped = true;
    payload.clear();
  } else if (spec.truncate_prob > 0.0 && !payload.empty() &&
             rng.unit() < spec.truncate_prob) {
    // Cut at a uniform position in [0, size): at least one bit is lost.
    const std::size_t keep =
        static_cast<std::size_t>(rng.below(payload.size_bits()));
    applied.truncated_bits += payload.size_bits() - keep;
    payload.truncate(keep);
  }
  if (spec.flip_per_bit > 0.0) {
    applied.bits_flipped += flip_bits(payload, spec.flip_per_bit, rng);
  }
  if (spec.duplicate_prob > 0.0 && rng.unit() < spec.duplicate_prob) {
    applied.duplicated = true;
  }
  if (spec.delay_prob > 0.0 && rng.unit() < spec.delay_prob) {
    applied.delay_rounds += spec.delay_rounds;
  }
}

std::uint64_t link_id(std::size_t lo, std::size_t hi) {
  return util::mix64(lo, hi);
}

}  // namespace

FaultPlan::FaultPlan(const FaultSpec& spec)
    : spec_(spec), rng_(spec.seed), enabled_(spec.enabled()) {
  validate(spec_);
}

FaultPlan::Link& FaultPlan::emplace_link(const LinkKey& key) {
  // The stream seed depends only on the plan seed and the link, so lazy
  // creation order cannot perturb determinism.
  return links_
      .try_emplace(key, util::mix64(spec_.seed,
                                    util::mix64(0x11CCu, link_id(key.first,
                                                                 key.second))))
      .first->second;
}

void FaultPlan::set_link_faults(std::size_t a, std::size_t b,
                                const FaultSpec& spec) {
  validate(spec);
  if (a == b) {
    throw std::invalid_argument("FaultPlan: a link needs two endpoints");
  }
  if (spec.burst.enabled()) {
    throw std::invalid_argument(
        "FaultPlan: a link overlay cannot carry a burst");
  }
  const LinkKey key{std::min(a, b), std::max(a, b)};
  Link& link = emplace_link(key);
  link.overlay = spec;
  link.overlay_rng = util::Rng(util::mix64(
      spec_.seed, util::mix64(spec.seed, link_id(key.first, key.second))));
  enabled_ = enabled_ || spec.enabled();
  players_needed_ = std::max(players_needed_, key.second + 1);
  std::erase_if(overlays_, [&](const LinkFaults& o) {
    return o.a == key.first && o.b == key.second;
  });
  overlays_.push_back({key.first, key.second, spec});
}

FaultPlan::Link* FaultPlan::link_state(std::size_t a, std::size_t b) {
  if (links_.empty() && !spec_.burst.enabled()) return nullptr;
  const LinkKey key{std::min(a, b), std::max(a, b)};
  if (const auto it = links_.find(key); it != links_.end()) return &it->second;
  return spec_.burst.enabled() ? &emplace_link(key) : nullptr;
}

AppliedFaults FaultPlan::apply(util::BitBuffer& payload, std::size_t a,
                               std::size_t b) {
  AppliedFaults applied;
  stats_.messages_seen += 1;
  draw_iid(spec_, rng_, payload, applied);

  if (Link* link = link_state(a, b)) {
    const GilbertElliott& g = spec_.burst;
    if (g.enabled()) {
      const double transition = link->bad ? g.p_bad_to_good : g.p_good_to_bad;
      if (transition > 0.0 && link->burst_rng.unit() < transition) {
        link->bad = !link->bad;
        if (link->bad) stats_.burst_state_entries += 1;
      }
      const double loss = link->bad ? g.loss_bad : g.loss_good;
      const double flip = link->bad ? g.flip_bad : g.flip_good;
      if (loss > 0.0 && link->burst_rng.unit() < loss) {
        applied.dropped = true;
        payload.clear();
      } else if (flip > 0.0) {
        applied.bits_flipped += flip_bits(payload, flip, link->burst_rng);
      }
    }
    draw_iid(link->overlay, link->overlay_rng, payload, applied);
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

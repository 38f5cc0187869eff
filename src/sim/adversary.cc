#include "sim/adversary.h"

#include <stdexcept>
#include <utility>

#include "util/set_util.h"

namespace setint::sim {

const char* attack_class_name(AttackClass attack) {
  switch (attack) {
    case AttackClass::kNone: return "none";
    case AttackClass::kInflatedLength: return "inflated-length";
    case AttackClass::kUnaryBomb: return "unary-bomb";
    case AttackClass::kRandomGarbage: return "random-garbage";
    case AttackClass::kReplay: return "replay";
    case AttackClass::kTruncate: return "truncate";
    case AttackClass::kSemanticLie: return "semantic-lie";
    case AttackClass::kMixed: return "mixed";
  }
  return "unknown";
}

Adversary::Adversary(const AdversarySpec& spec)
    : spec_(spec), rng_(spec.seed) {
  if (!(spec.attack_prob >= 0.0) || !(spec.attack_prob <= 1.0)) {
    throw std::invalid_argument(
        "AdversarySpec: attack_prob must be in [0, 1]");
  }
  if (spec.frame_bits == 0) {
    throw std::invalid_argument("AdversarySpec: frame_bits must be > 0");
  }
  if (spec.lie_universe < 2) {
    throw std::invalid_argument("AdversarySpec: lie_universe must be >= 2");
  }
}

AttackClass Adversary::craft(util::BitBuffer& payload) {
  stats_.frames_seen += 1;
  // Remember the honest frame first so a later replay attack can re-send
  // genuine (stale) protocol bytes, not just crafted ones.
  const util::BitBuffer honest = payload;
  if (!enabled() ||
      (spec_.attack_prob < 1.0 && rng_.unit() >= spec_.attack_prob)) {
    last_frame_ = honest;
    return AttackClass::kNone;
  }

  AttackClass attack = spec_.attack;
  if (attack == AttackClass::kMixed) {
    static constexpr AttackClass kRotation[] = {
        AttackClass::kInflatedLength, AttackClass::kUnaryBomb,
        AttackClass::kRandomGarbage,  AttackClass::kReplay,
        AttackClass::kTruncate,       AttackClass::kSemanticLie,
    };
    attack = kRotation[rng_.below(std::size(kRotation))];
  }

  switch (attack) {
    case AttackClass::kInflatedLength:
      craft_inflated_length(payload);
      stats_.inflated_lengths += 1;
      break;
    case AttackClass::kUnaryBomb:
      craft_unary_bomb(payload);
      stats_.unary_bombs += 1;
      break;
    case AttackClass::kRandomGarbage:
      craft_garbage(payload);
      stats_.garbage_frames += 1;
      break;
    case AttackClass::kReplay:
      craft_replay(payload);
      stats_.replays += 1;
      break;
    case AttackClass::kTruncate:
      craft_truncate(payload);
      stats_.truncations += 1;
      break;
    case AttackClass::kSemanticLie:
      craft_semantic_lie(payload);
      stats_.semantic_lies += 1;
      break;
    case AttackClass::kNone:
    case AttackClass::kMixed:
      last_frame_ = honest;
      return AttackClass::kNone;
  }
  stats_.frames_crafted += 1;
  last_frame_ = honest;
  return attack;
}

// gamma64(N) followed by N one-bits decodes (as a set) to {0, 1, ..., N-1}
// — a perfectly valid canonical set of frame_bits items from a frame of
// ~frame_bits bits. Without a max_decoded_items cap the honest decoder
// materializes all of it; this is the allocation-amplification attack the
// limits exist for (bench/exp_adversary pins that it actually bites).
void Adversary::craft_inflated_length(util::BitBuffer& payload) {
  payload.clear();
  const std::uint64_t claimed = spec_.frame_bits;
  payload.append_gamma64(claimed);
  for (std::uint64_t i = 0; i < claimed; ++i) payload.append_bit(true);
}

// Alternating all-zeros / all-ones frames: zeros drive gamma decoders into
// their 63-bit zero-run cap, ones drive Rice decoders into maximal unary
// scans (and read as a giant inflated gamma value where a length prefix is
// expected).
void Adversary::craft_unary_bomb(util::BitBuffer& payload) {
  payload.clear();
  const bool ones = rng_.coin();
  for (std::uint64_t i = 0; i < spec_.frame_bits; ++i) {
    payload.append_bit(ones);
  }
}

void Adversary::craft_garbage(util::BitBuffer& payload) {
  payload.clear();
  // Random length in [1, frame_bits] so short-frame (out-of-bits) and
  // long-frame (trailing junk) decode paths are both exercised.
  const std::uint64_t len = 1 + rng_.below(spec_.frame_bits);
  for (std::uint64_t i = 0; i < len; ++i) payload.append_bit(rng_.coin());
}

// Re-send the previous frame from this party — a stale-state / reordering
// attack. The first message of a run has nothing to replay; it degenerates
// to an empty frame (a drop), which is also a frame the peer never asked
// for.
void Adversary::craft_replay(util::BitBuffer& payload) {
  payload = last_frame_;
}

void Adversary::craft_truncate(util::BitBuffer& payload) {
  if (payload.empty()) return;
  payload.truncate(static_cast<std::size_t>(rng_.below(payload.size_bits())));
}

// A frame that decodes cleanly as a canonical set — correct format,
// fabricated content. Downstream this models a peer lying about its input
// (claiming elements it does not hold, hiding ones it does): the decoders
// accept it, so only the semantic defenses (certificates, the
// own-input-subset invariant) contain the damage.
void Adversary::craft_semantic_lie(util::BitBuffer& payload) {
  payload.clear();
  const std::uint64_t size =
      1 + rng_.below(std::min<std::uint64_t>(64, spec_.lie_universe));
  util::Rng lie_rng(rng_.next());
  const util::Set lie = util::random_set(lie_rng, spec_.lie_universe,
                                         static_cast<std::size_t>(size));
  util::append_set(payload, lie);
}

}  // namespace setint::sim

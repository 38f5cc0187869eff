#include "sim/channel.h"

#include <bit>

#include "core/budget.h"
#include "obs/recorder.h"
#include "obs/tracer.h"

namespace setint::sim {

Channel::Channel(bool record_transcript) {
  if (record_transcript) transcript_ = std::make_unique<Transcript>();
}

namespace {

constexpr unsigned kChecksumBits = 32;

std::uint64_t checksum_of(const util::BitBuffer& payload) {
  return payload.fingerprint() & ((std::uint64_t{1} << kChecksumBits) - 1);
}

// The `width` bits of `b` that start at bit `pos`; pos + width must not
// pass the end.
std::uint64_t field_at(const util::BitBuffer& b, std::size_t pos,
                       unsigned width) {
  const std::vector<std::uint64_t>& words = b.words();
  const std::size_t q = pos / 64;
  const unsigned r = pos % 64;
  std::uint64_t v = words[q] >> r;
  if (r != 0 && q + 1 < words.size()) v |= words[q + 1] << (64 - r);
  return width == 64 ? v : v & ((std::uint64_t{1} << width) - 1);
}

// Appends the integrity frame's tail to `body`: the 32-bit checksum, then
// the w-bit syndrome and the parity of the n = |body| + 32 bits before
// it, w = bit_width(n). One reserve covers all of it.
void seal(util::BitBuffer& body) {
  const std::size_t n = body.size_bits() + kChecksumBits;
  const unsigned w = std::bit_width(n);
  body.reserve_bits(n + w + 1);
  body.append_bits(checksum_of(body), kChecksumBits);
  const FrameCode code = frame_code(body, n);
  body.append_bits(code.syndrome, w);
  body.append_bit(code.parity);
}

// The n of a frame of `len` bits: the inverse of n -> n + bit_width(n) + 1,
// which is strictly increasing. 0 when no frame has that length.
std::size_t protected_bits(std::size_t len) {
  for (unsigned w = std::bit_width(len); w > 0; --w) {
    if (len <= w) continue;
    const std::size_t n = len - w - 1;
    if (std::bit_width(n) == w) return n;
  }
  return 0;
}

// True when `frame` starts with the bits of `body`.
bool starts_with(const util::BitBuffer& frame, const util::BitBuffer& body) {
  if (frame.size_bits() < body.size_bits()) return false;
  const std::size_t full = body.size_bits() / 64;
  for (std::size_t q = 0; q < full; ++q) {
    if (frame.words()[q] != body.words()[q]) return false;
  }
  const unsigned tail = body.size_bits() % 64;
  if (tail == 0) return true;
  const std::uint64_t mask = (std::uint64_t{1} << tail) - 1;
  return (frame.words()[full] & mask) == body.words()[full];
}

}  // namespace

FrameCode frame_code(const util::BitBuffer& frame, std::size_t n) {
  // Bit i sits at position i + 1. Shifted up one bit, word q of the frame
  // holds positions 64q .. 64q + 63, so a set bit's position is q in the
  // high part and its index in the shifted word in the low six bits. The
  // low six syndrome bits are linear in the word: bit j is the parity of
  // the set bits at indices with bit j set, taken once over the XOR of
  // all shifted words. The high part XORs in q for every shifted word
  // with an odd popcount.
  constexpr std::uint64_t kIndexBit[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  const std::vector<std::uint64_t>& words = frame.words();
  const std::size_t last = n / 64;  // shifted word holding position n
  std::uint64_t folded = 0;
  std::uint64_t high = 0;
  std::uint64_t carry = 0;
  for (std::size_t q = 0; q <= last; ++q) {
    const std::uint64_t w = q < words.size() ? words[q] : 0;
    std::uint64_t shifted = (w << 1) | carry;
    carry = w >> 63;
    // Keep positions <= n; at n % 64 == 63 the mask wraps to all ones.
    if (q == last) shifted &= (std::uint64_t{2} << (n % 64)) - 1;
    folded ^= shifted;
    if (std::popcount(shifted) & 1) high ^= q;
  }
  FrameCode code;
  code.syndrome = high << 6;
  for (unsigned j = 0; j < 6; ++j) {
    code.syndrome |=
        static_cast<std::uint64_t>(std::popcount(folded & kIndexBit[j]) & 1)
        << j;
  }
  code.parity = std::popcount(folded) & 1;
  return code;
}

util::BitBuffer Channel::send(PartyId from, util::BitBuffer payload,
                              std::string label) {
  // The session budget refuses the send before it costs anything.
  if (budget_ != nullptr) budget_->check();
  // Byzantine substitution comes next: the adversary IS the sender, so
  // anything added below (integrity framing, metering) applies to the
  // crafted frame exactly as it would to an honest one.
  if (adversary_ != nullptr && adversary_->controls(from)) {
    const AttackClass attack = adversary_->craft(payload);
    if (attack != AttackClass::kNone) {
      crafted_frames_ += 1;
      if (tracer_ != nullptr) {
        obs::count(tracer_, "adversary.crafted");
        obs::count(tracer_,
                   std::string("adversary.") + attack_class_name(attack));
      }
    }
  }
  // Chaos gate: a crashed endpoint or partitioned link refuses the send
  // BEFORE metering — the frame never left the sender, so no bits are
  // charged. The recovery layer catches, waits out the outage, and
  // resumes from the last checkpoint.
  if (chaos_ != nullptr && chaos_->enabled()) {
    try {
      chaos_->on_send_attempt(link_a_, link_b_);
    } catch (const PlayerCrashError& e) {
      obs::count(tracer_, "chaos.crash_blocks");
      if (recorder_ != nullptr) {
        recorder_->record(obs::FlightEventKind::kCrash, label,
                          static_cast<int>(e.player), 0, cost_.bits_total);
      }
      throw;
    } catch (const LinkPartitionedError&) {
      obs::count(tracer_, "chaos.partition_blocks");
      if (recorder_ != nullptr) {
        recorder_->record(obs::FlightEventKind::kPartition, label,
                          index(from), 0, cost_.bits_total);
      }
      throw;
    }
  }
  const bool framed = fault_plan_ != nullptr && fault_plan_->enabled();
  // Integrity frame, transmitted (and billed) like any other bits.
  if (framed) seal(payload);
  meter(from, payload.size_bits(), label);
  if (framed) deliver_framed(from, payload, label);

  // Fold every delivered body into the recorder's running transcript
  // digest — the bit-for-bit equality tools/replay asserts between an
  // incident's original session and its re-execution.
  if (recorder_ != nullptr) recorder_->mix_payload(payload.fingerprint());
  if (digest_enabled_) digest_ = fold_digest(digest_, from, payload.fingerprint());
  if (transcript_) transcript_->record(from, payload, std::move(label));
  return payload;
}

void Channel::charge_bits(PartyId from, std::uint64_t bits) {
  cost_.bits_total += bits;
  if (from == PartyId::kAlice) {
    cost_.bits_from_alice += bits;
  } else {
    cost_.bits_from_bob += bits;
  }
  cost_.messages += 1;
}

void Channel::meter(PartyId from, std::uint64_t bits,
                    const std::string& label) {
  charge_bits(from, bits);
  const bool new_round = !has_last_direction_ || last_direction_ != from;
  if (new_round) {
    cost_.rounds += 1;
    has_last_direction_ = true;
    last_direction_ = from;
  }
  if (tracer_ != nullptr) tracer_->on_message(from, bits, new_round, label);
  if (recorder_ != nullptr) {
    recorder_->record(obs::FlightEventKind::kMessage, label, index(from),
                      static_cast<std::uint32_t>(bits), cost_.bits_total);
  }

  // The frame cap fires after metering: the bandwidth was spent (the
  // attacker pays for its frame like everyone else) but the receiver
  // refuses to decode it. The throw lands in the retry layer.
  if (limits_ != nullptr && limits_->max_message_bits > 0 &&
      bits > limits_->max_message_bits) {
    obs::count(tracer_, "limit.message_bits_breaches");
    if (recorder_ != nullptr) {
      recorder_->record(obs::FlightEventKind::kLimitBreach, label,
                        index(from), 0, cost_.bits_total);
      recorder_->incident("limit: max_message_bits");
    }
    throw core::ResourceLimitError(
        "max_message_bits: frame of " + std::to_string(bits) +
        " bits exceeds the " + std::to_string(limits_->max_message_bits) +
        "-bit cap (" + label + ")");
  }
}

void Channel::deliver_framed(PartyId from, util::BitBuffer& frame,
                             const std::string& label) {
  // The plan damages `frame` in place; the pooled copy keeps the pristine
  // frame for resends. Pool capacity is reused across sends, so a framed
  // send allocates nothing once the pool has grown to the session's
  // largest frame.
  util::PooledBuffer pristine(buffer_pool_);
  *pristine = frame;
  for (unsigned resends = 0;; ++resends) {
    const char* failure = deliver_once(from, frame, *pristine, label);
    if (failure == nullptr) return;
    obs::count(tracer_, "fault.integrity_failures");
    if (recorder_ != nullptr) {
      recorder_->record(obs::FlightEventKind::kIntegrityFailure, label,
                        index(from), 0, cost_.bits_total);
    }
    if (resends == kMaxResends) {
      // The link is really bad: abandon the frame and let the retry layer
      // start a fresh attempt. One incident per abandoned frame, however
      // many deliveries failed on the way.
      if (recorder_ != nullptr) {
        recorder_->incident(std::string("integrity: ") + failure);
      }
      throw ChannelIntegrityError(std::string("channel: frame ") + failure +
                                  " (" + label + ")");
    }
    // The receiver NACKs (1 bit, its own round) and the sender puts the
    // same frame on the wire again (another round), each metered and
    // limit-checked like a first send.
    meter(other(from), 1, label + " [nack]");
    obs::count(tracer_, "fault.resends");
    meter(from, pristine->size_bits(), label + " [resend]");
    frame = *pristine;
  }
}

const char* Channel::deliver_once(PartyId from, util::BitBuffer& frame,
                                  const util::BitBuffer& pristine,
                                  const std::string& label) {
  // The sender's transmission is metered; the plan now decides what the
  // receiver observes and what extra cost the link charges.
  const std::uint64_t sent_bits = frame.size_bits();
  const AppliedFaults f = fault_plan_->apply(frame, link_a_, link_b_);
  if (f.duplicated) {
    // The same frame crosses the link twice. The receiver's decode API
    // sees one copy, but the bandwidth is spent and billed.
    charge_bits(from, sent_bits);
    if (tracer_ != nullptr) {
      tracer_->on_message(from, sent_bits, false, label + " [dup]");
    }
  }
  if (f.delay_rounds > 0) charge_extra_rounds(f.delay_rounds);
  if (recorder_ != nullptr && f.events() > 0) {
    std::string what;
    if (f.bits_flipped > 0) what += "flip ";
    if (f.truncated_bits > 0) what += "trunc ";
    if (f.dropped) what += "drop ";
    if (f.duplicated) what += "dup ";
    if (f.delay_rounds > 0) what += "delay ";
    what.pop_back();
    recorder_->record(obs::FlightEventKind::kFault, what, index(from), 0,
                      cost_.bits_total);
  }
  if (tracer_ != nullptr) {
    obs::count(tracer_, "fault.injected", f.events());
    if (f.bits_flipped > 0) {
      obs::count(tracer_, "fault.flipped_bits", f.bits_flipped);
    }
    if (f.truncated_bits > 0) obs::count(tracer_, "fault.truncations");
    if (f.dropped) obs::count(tracer_, "fault.drops");
    if (f.duplicated) obs::count(tracer_, "fault.duplicates");
    if (f.delay_rounds > 0) {
      obs::count(tracer_, "fault.delay_rounds", f.delay_rounds);
    }
  }

  // Delivery-side decode. The receiver reads n from the frame's length,
  // lets the syndrome and parity repair a single flipped bit, then makes
  // one checksum comparison against the one body that results, so any
  // damage the code cannot undo (two flips, a flip in the syndrome field,
  // truncation, a drop) fails with probability 1 - 2^-32.
  const std::size_t n = protected_bits(frame.size_bits());
  if (n < kChecksumBits) return "lost in flight";
  const unsigned w = std::bit_width(n);
  const FrameCode code = frame_code(frame, n);
  const std::uint64_t diff = code.syndrome ^ field_at(frame, n, w);
  // Parity differs: an odd number of flips, taken to be one, at position
  // diff; diff == 0 means the parity bit itself.
  const bool one_flip = code.parity != frame.bit(n + w);
  if (one_flip) {
    if (diff > n) return "uncorrectable damage";
    if (diff != 0) frame.toggle_bit(diff - 1);
  } else if (diff != 0) {
    return "uncorrectable damage";
  }
  const std::size_t body_bits = n - kChecksumBits;
  const std::uint64_t delivered_sum =
      field_at(frame, body_bits, kChecksumBits);
  // Strip the frame in place — truncate normalizes the tail word, so
  // the body the receiver decodes is bit- and word-identical to one
  // built from scratch (no per-message re-copy).
  frame.truncate(body_bits);
  if (delivered_sum != checksum_of(frame)) return "checksum mismatch";
  if (one_flip) obs::count(tracer_, "fault.corrected");
  if ((f.bits_flipped > 0 || f.truncated_bits > 0) &&
      !starts_with(pristine, frame)) {
    ++undetected_damage_;
  }
  return nullptr;
}

void Channel::charge_extra_rounds(std::uint64_t rounds) {
  if (rounds == 0) return;
  cost_.rounds += rounds;
  if (tracer_ != nullptr) {
    CostStats latency;
    latency.rounds = rounds;
    tracer_->on_cost(latency);
  }
}

}  // namespace setint::sim

#include "sim/channel.h"

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

}  // namespace

util::BitBuffer Channel::send(PartyId from, util::BitBuffer payload,
                              std::string label) {
  // Byzantine substitution happens first: the adversary IS the sender, so
  // anything added below (integrity framing, metering) applies to the
  // crafted frame exactly as it would to an honest one.
  if (adversary_ != nullptr && adversary_->controls(from)) {
    const AttackClass attack = adversary_->craft(payload);
    if (attack != AttackClass::kNone && tracer_ != nullptr) {
      obs::count(tracer_, "adversary.crafted");
      obs::count(tracer_,
                 std::string("adversary.") + attack_class_name(attack));
    }
  }
  // Chaos gate: a crashed endpoint or partitioned link refuses the send
  // BEFORE metering — the frame never left the sender, so no bits are
  // charged. The recovery layer catches, waits out the outage, and
  // resumes from the last checkpoint.
  const bool chaotic = chaos_ != nullptr && chaos_->enabled();
  if (chaotic) {
    try {
      chaos_->on_send_attempt(chaos_a_, chaos_b_);
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
  const bool faulty = fault_plan_ != nullptr && fault_plan_->enabled();
  const bool framed =
      faulty || (chaotic && chaos_->corrupts_links());
  if (framed) {
    // Integrity frame: body + 32-bit checksum, transmitted (and billed)
    // like any other bits.
    payload.append_bits(checksum_of(payload), kChecksumBits);
  }
  meter(from, payload.size_bits(), label);
  if (framed) deliver_framed(from, payload, label, faulty, chaotic);

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

  // Resource limits fire after metering: the bandwidth was spent (the
  // attacker pays for its frame like everyone else) but the receiver
  // refuses to decode it. The throw lands in the retry layer.
  if (limits_ == nullptr || !limits_->enabled()) return;
  if (limits_->max_message_bits > 0 && bits > limits_->max_message_bits) {
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
  if (limits_->max_total_bits > 0 &&
      cost_.bits_total > limits_->max_total_bits) {
    obs::count(tracer_, "limit.total_bits_breaches");
    if (recorder_ != nullptr) {
      recorder_->record(obs::FlightEventKind::kLimitBreach, label,
                        index(from), 0, cost_.bits_total);
      recorder_->incident("limit: max_total_bits");
    }
    throw core::ResourceLimitError(
        "max_total_bits: run total of " + std::to_string(cost_.bits_total) +
        " bits exceeds the " + std::to_string(limits_->max_total_bits) +
        "-bit cap (" + label + ")");
  }
  if (limits_->max_rounds > 0 && cost_.rounds > limits_->max_rounds) {
    obs::count(tracer_, "limit.rounds_breaches");
    if (recorder_ != nullptr) {
      recorder_->record(obs::FlightEventKind::kLimitBreach, label,
                        index(from), 0, cost_.bits_total);
      recorder_->incident("limit: max_rounds");
    }
    throw core::ResourceLimitError(
        "max_rounds: round " + std::to_string(cost_.rounds) +
        " exceeds the " + std::to_string(limits_->max_rounds) +
        "-round cap (" + label + ")");
  }
}

void Channel::deliver_framed(PartyId from, util::BitBuffer& frame,
                             const std::string& label, bool faulty,
                             bool chaotic) {
  // The plans damage `frame` in place; the pooled copy keeps the pristine
  // frame for resends. Pool capacity is reused across sends, so a framed
  // send allocates nothing once the pool has grown to the session's
  // largest frame.
  util::PooledBuffer pristine(buffer_pool_);
  *pristine = frame;
  for (unsigned resends = 0;; ++resends) {
    const char* failure = deliver_once(from, frame, label, faulty, chaotic);
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
                                  const std::string& label, bool faulty,
                                  bool chaotic) {
  // The sender's transmission is metered; the plans now decide what the
  // receiver observes and what extra cost the link charges. Order is
  // load-bearing for bit-identity: the iid fault plan draws first
  // (exactly as before the chaos layer existed), then the chaos plan's
  // link-level damage lands on top.
  const std::uint64_t sent_bits = frame.size_bits();
  AppliedFaults plan_faults;
  if (faulty) plan_faults = fault_plan_->apply(frame);
  AppliedFaults chaos_faults;
  if (chaotic) chaos_faults = chaos_->corrupt(chaos_a_, chaos_b_, frame);
  AppliedFaults f = plan_faults;
  f.bits_flipped += chaos_faults.bits_flipped;
  f.truncated_bits += chaos_faults.truncated_bits;
  f.dropped = f.dropped || chaos_faults.dropped;
  f.duplicated = f.duplicated || chaos_faults.duplicated;
  f.delay_rounds += chaos_faults.delay_rounds;
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
    // fault.* stays attributed to the iid plan alone (pre-chaos metric
    // meanings are pinned by tests); chaos link damage gets its own
    // family.
    obs::count(tracer_, "fault.injected", plan_faults.events());
    if (plan_faults.bits_flipped > 0) {
      obs::count(tracer_, "fault.flipped_bits", plan_faults.bits_flipped);
    }
    if (plan_faults.truncated_bits > 0) {
      obs::count(tracer_, "fault.truncations");
    }
    if (plan_faults.dropped) obs::count(tracer_, "fault.drops");
    if (plan_faults.duplicated) obs::count(tracer_, "fault.duplicates");
    if (plan_faults.delay_rounds > 0) {
      obs::count(tracer_, "fault.delay_rounds", plan_faults.delay_rounds);
    }
    if (chaos_faults.events() > 0) {
      obs::count(tracer_, "chaos.link_faults", chaos_faults.events());
    }
    if (chaos_faults.bits_flipped > 0) {
      obs::count(tracer_, "chaos.flipped_bits", chaos_faults.bits_flipped);
    }
    if (chaos_faults.dropped) obs::count(tracer_, "chaos.drops");
  }

  // Delivery-side integrity check: strip the checksum and verify it
  // against the (possibly corrupted) body. Any damage — flips,
  // truncation, a drop — fails here with probability 1 - 2^-32.
  if (frame.size_bits() < kChecksumBits) return "lost in flight";
  const std::size_t body_bits = frame.size_bits() - kChecksumBits;
  std::uint64_t delivered_sum = 0;
  for (unsigned i = 0; i < kChecksumBits; ++i) {
    if (frame.bit(body_bits + i)) delivered_sum |= std::uint64_t{1} << i;
  }
  // Strip the frame in place — truncate normalizes the tail word, so
  // the body the receiver decodes is bit- and word-identical to one
  // built from scratch (no per-message re-copy).
  frame.truncate(body_bits);
  if (delivered_sum != checksum_of(frame)) return "checksum mismatch";
  if (f.bits_flipped > 0 || f.truncated_bits > 0) ++undetected_damage_;
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
  if (limits_ != nullptr && limits_->max_rounds > 0 &&
      cost_.rounds > limits_->max_rounds) {
    obs::count(tracer_, "limit.rounds_breaches");
    if (recorder_ != nullptr) {
      recorder_->record(obs::FlightEventKind::kLimitBreach, "latency charge",
                        -1, 0, cost_.bits_total);
      recorder_->incident("limit: max_rounds (latency)");
    }
    throw core::ResourceLimitError(
        "max_rounds: latency charge brings the run to " +
        std::to_string(cost_.rounds) + " rounds, cap " +
        std::to_string(limits_->max_rounds));
  }
}

}  // namespace setint::sim

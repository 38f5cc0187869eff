#include "core/engine.h"

#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "core/basic_intersection.h"
#include "core/bucket_eq.h"
#include "core/tree_parties.h"
#include "eq/amortized_eq.h"
#include "sim/randomness.h"
#include "util/rng.h"

namespace setint::core {

namespace {

constexpr std::size_t kFramePayloadBytes = 1 + 3 * 8;  // kind + 3 x u64

void append_u32_le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void append_u64_le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint64_t read_u64_le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

}  // namespace

void append_frame(std::vector<std::uint8_t>& out, const ProgressFrame& f) {
  append_u32_le(out, static_cast<std::uint32_t>(kFramePayloadBytes));
  out.push_back(static_cast<std::uint8_t>(f.kind));
  append_u64_le(out, f.step);
  append_u64_le(out, f.bits_total);
  append_u64_le(out, f.digest);
}

void append_ack_frame(std::vector<std::uint8_t>& out, std::uint64_t ack_id) {
  ProgressFrame f;
  f.kind = FrameKind::kAck;
  f.step = ack_id;
  append_frame(out, f);
}

bool parse_frame_payload(const std::vector<std::uint8_t>& payload,
                         ProgressFrame* out) {
  if (payload.size() != kFramePayloadBytes) return false;
  if (payload[0] > static_cast<std::uint8_t>(FrameKind::kAck)) return false;
  out->kind = static_cast<FrameKind>(payload[0]);
  out->step = read_u64_le(payload.data() + 1);
  out->bits_total = read_u64_le(payload.data() + 9);
  out->digest = read_u64_le(payload.data() + 17);
  return true;
}

void FrameAssembler::push(const std::uint8_t* data, std::size_t size) {
  // Compact lazily: once everything buffered has been consumed the vector
  // can restart from zero instead of growing for the session's lifetime.
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + size);
}

bool FrameAssembler::next(std::vector<std::uint8_t>& payload) {
  if (pending_bytes() < kFrameHeaderBytes) return false;
  std::uint32_t len = 0;
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
    len |= std::uint32_t{buf_[pos_ + i]} << (8 * i);
  }
  if (len > kMaxFramePayloadBytes) {
    throw std::length_error("frame header declares " + std::to_string(len) +
                            " payload bytes, cap is " +
                            std::to_string(kMaxFramePayloadBytes));
  }
  if (pending_bytes() < kFrameHeaderBytes + len) return false;
  payload.assign(buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + kFrameHeaderBytes),
                 buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + kFrameHeaderBytes + len));
  pos_ += kFrameHeaderBytes + len;
  return true;
}

std::string_view machine_status_name(MachineStatus s) {
  switch (s) {
    case MachineStatus::kIdle: return "idle";
    case MachineStatus::kNeedInput: return "need_input";
    case MachineStatus::kDone: return "done";
    case MachineStatus::kFailed: return "failed";
  }
  return "?";
}

MachineOutput ProtocolMachine::start() {
  MachineOutput out;
  if (status_ != MachineStatus::kIdle) {
    throw std::logic_error("ProtocolMachine::start called twice");
  }
  step_once(out);
  out.status = status_;
  return out;
}

MachineOutput ProtocolMachine::on_bytes(const std::uint8_t* data,
                                        std::size_t size) {
  if (status_ == MachineStatus::kIdle) {
    throw std::logic_error("ProtocolMachine::on_bytes before start");
  }
  MachineOutput out;
  assembler_.push(data, size);
  try {
    std::vector<std::uint8_t> payload;
    while (status_ == MachineStatus::kNeedInput && assembler_.next(payload)) {
      acks_ += 1;
      step_once(out);
    }
    // A finished (or failed) machine drains stale acks without reacting.
    if (status_ != MachineStatus::kNeedInput) {
      while (assembler_.next(payload)) {
      }
    } else if (assembler_.pending_bytes() > 0) {
      // Truncated frame: suspend — never throw, never hand a partial frame
      // to a decoder (see the partial-read audit in the header).
      frame_parks_ += 1;
    }
  } catch (const std::length_error& e) {
    // A lying length header is not a partial frame — the stream is
    // unrecoverable. Fail the session (with a frame telling the peer so)
    // instead of letting the throw escape the event loop.
    status_ = MachineStatus::kFailed;
    error_ = e.what();
    ProgressFrame f;
    f.kind = FrameKind::kFailed;
    f.step = steps_;
    f.bits_total = cost().bits_total;
    f.digest = digest();
    append_frame(out.bytes, f);
    out.frames += 1;
  }
  out.status = status_;
  return out;
}

void ProtocolMachine::step_once(MachineOutput& out) {
  ProgressFrame f;
  try {
    const bool finished = advance();
    status_ = finished ? MachineStatus::kDone : MachineStatus::kNeedInput;
    f.kind = finished ? FrameKind::kDone : FrameKind::kProgress;
  } catch (const std::exception& e) {
    status_ = MachineStatus::kFailed;
    error_ = e.what();
    f.kind = FrameKind::kFailed;
  }
  steps_ += 1;
  f.step = steps_;
  f.bits_total = cost().bits_total;
  f.digest = digest();
  append_frame(out.bytes, f);
  out.frames += 1;
}

std::uint64_t fingerprint_set(std::uint64_t h, util::SetView s) {
  h = util::mix64(h, s.size());
  for (const std::uint64_t v : s) h = util::mix64(h, v);
  return h;
}

std::uint64_t fingerprint_bools(std::uint64_t h, const std::vector<bool>& v) {
  h = util::mix64(h, v.size());
  for (const bool b : v) h = util::mix64(h, b ? 0x0b : 0xa0);
  return h;
}

void make_amortized_eq_inputs(std::uint64_t seed, std::size_t count,
                              std::vector<util::BitBuffer>* xs,
                              std::vector<util::BitBuffer>* ys) {
  util::Rng rng(util::mix64(seed, 0xEDE0));
  xs->assign(count, {});
  ys->assign(count, {});
  for (std::size_t i = 0; i < count; ++i) {
    const unsigned bits = 8 + static_cast<unsigned>(rng.below(57));
    const std::uint64_t word =
        rng.next() & (bits == 64 ? ~std::uint64_t{0}
                                 : ((std::uint64_t{1} << bits) - 1));
    (*xs)[i].append_bits(word, bits);
    if (rng.below(2) == 0) {
      (*ys)[i] = (*xs)[i];
    } else {
      const std::uint64_t flip = std::uint64_t{1} << rng.below(bits);
      (*ys)[i].append_bits(word ^ flip, bits);
    }
  }
}

namespace {

// Machine over one core protocol: owns the channel and steps the run
// object the protocol's blocking entry point steps to completion. The run
// is built on the first step, so a bad config fails the session rather
// than the factory.
class CoreMachine final : public ProtocolMachine {
 public:
  CoreMachine(std::string_view kind, MachineConfig cfg)
      : kind_(kind), cfg_(std::move(cfg)), shared_(cfg_.seed) {
    channel_.enable_digest();
  }
  std::string_view kind() const override { return kind_; }
  sim::Channel& channel() override { return channel_; }

  std::uint64_t result_fingerprint() const override {
    const auto pair = [](std::uint64_t h, const IntersectionOutput& out) {
      return fingerprint_set(fingerprint_set(h, out.alice), out.bob);
    };
    if (const auto* bi = std::get_if<BasicIntersectionRun>(&run_)) {
      const CandidatePair c = bi->candidates(0);
      return pair(0xB1, {c.s_candidate, c.t_candidate});
    }
    if (const auto* vt = std::get_if<VerificationTreeRun>(&run_)) {
      return pair(0x57, vt->output());
    }
    if (const auto* be = std::get_if<BucketEqRun>(&run_)) {
      return pair(0xB7, be->output());
    }
    return fingerprint_bools(0xE9,
                             std::get<eq::AmortizedEqRun>(run_).verdicts());
  }

 protected:
  bool advance() override {
    if (std::holds_alternative<std::monostate>(run_)) make_run();
    return std::visit(
        [](auto& run) {
          if constexpr (std::is_same_v<decltype(run), std::monostate&>) {
            return true;
          } else {
            return run.step();
          }
        },
        run_);
  }

 private:
  void make_run() {
    if (kind_ == "bi") {
      util::validate_set(cfg_.s, cfg_.universe);
      util::validate_set(cfg_.t, cfg_.universe);
      const std::pair<util::SetView, util::SetView> one[] = {{cfg_.s, cfg_.t}};
      run_.emplace<BasicIntersectionRun>(channel_, shared_, cfg_.nonce,
                                         cfg_.universe, one,
                                         cfg_.bi_target_failure);
    } else if (kind_ == "vt") {
      run_.emplace<VerificationTreeRun>(channel_, shared_, cfg_.nonce,
                                        cfg_.universe, cfg_.s, cfg_.t,
                                        cfg_.tree);
    } else if (kind_ == "bucket_eq") {
      run_.emplace<BucketEqRun>(channel_, shared_, cfg_.nonce, cfg_.universe,
                                cfg_.s, cfg_.t, cfg_.bucket_eq_strength);
    } else {
      make_amortized_eq_inputs(cfg_.seed,
                               cfg_.eq_instances != 0
                                   ? cfg_.eq_instances
                                   : std::max<std::size_t>(cfg_.s.size(), 4),
                               &xs_, &ys_);
      run_.emplace<eq::AmortizedEqRun>(channel_, shared_, cfg_.nonce, xs_,
                                       ys_);
    }
  }

  std::string_view kind_;
  MachineConfig cfg_;
  sim::SharedRandomness shared_;
  std::vector<util::BitBuffer> xs_, ys_;  // "amortized_eq" instances
  sim::Channel channel_;
  std::variant<std::monostate, BasicIntersectionRun, VerificationTreeRun,
               BucketEqRun, eq::AmortizedEqRun>
      run_;
};

}  // namespace

std::unique_ptr<ProtocolMachine> make_machine(std::string_view kind,
                                              MachineConfig cfg) {
  for (const std::string_view known : kMachineKinds) {
    if (kind == known) {
      return std::make_unique<CoreMachine>(known, std::move(cfg));
    }
  }
  throw std::invalid_argument("make_machine: unknown kind '" +
                              std::string(kind) + "'");
}

}  // namespace setint::core

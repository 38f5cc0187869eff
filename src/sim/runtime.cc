#include "sim/runtime.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/checkpoint.h"
#include "obs/tracer.h"

namespace setint::sim {

namespace {

// Snapshot state: each delivered message as gamma64(bit length) + bits.
void append_message(util::BitBuffer& log, const util::BitBuffer& message) {
  log.append_gamma64(message.size_bits());
  log.append_buffer(message);
}

std::vector<util::BitBuffer> read_messages(const util::BitBuffer& log) {
  std::vector<util::BitBuffer> messages;
  util::BitReader in(log);
  while (!in.exhausted()) {
    const std::uint64_t bits = in.read_gamma64();
    in.expect_at_least(bits, 1, "checkpoint message");
    util::BitBuffer& m = messages.emplace_back();
    for (std::uint64_t b = 0; b < bits; b += 64) {
      const unsigned chunk = static_cast<unsigned>(std::min<std::uint64_t>(
          64, bits - b));
      m.append_bits(in.read_bits(chunk), chunk);
    }
  }
  return messages;
}

// Length of the leading whole segments two '/'-separated paths share.
std::size_t shared_prefix(std::string_view a, std::string_view b) {
  const auto ends_segment = [](std::string_view path, std::size_t i) {
    return i == path.size() || path[i] == '/';
  };
  std::size_t i = static_cast<std::size_t>(
      std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
      a.begin());
  while (i > 0 && !(ends_segment(a, i) && ends_segment(b, i))) --i;
  return i;
}

// Segments in a path remainder ("", "/a/b" or "a/b").
std::size_t segments(std::string_view rest) {
  if (!rest.empty() && rest.front() == '/') rest.remove_prefix(1);
  return rest.empty()
             ? 0
             : 1 + static_cast<std::size_t>(
                       std::count(rest.begin(), rest.end(), '/'));
}

}  // namespace

// Live messages are metered under a '/'-separated path below the caller's
// span. Moving to the next message's path pops and pushes only the
// segments that change, so consecutive messages of one phase share a
// single span entry; the run closes every open segment when it ends (also
// by exception).
void TwoPartyRun::enter(std::string_view phase) {
  obs::Tracer* tracer = channel_.tracer();
  if (phase == phase_ || tracer == nullptr) return;
  const std::size_t keep = shared_prefix(phase_, phase);
  for (std::size_t n = segments(phase_.substr(keep)); n > 0; --n) {
    tracer->pop();
  }
  for (std::string_view rest = phase.substr(keep); !rest.empty();) {
    if (rest.front() == '/') rest.remove_prefix(1);
    const std::size_t end = std::min(rest.find('/'), rest.size());
    tracer->push(rest.substr(0, end));
    rest.remove_prefix(end);
  }
  phase_ = phase;
}

TwoPartyRun::TwoPartyRun(Channel& channel, Party& alice, Party& bob,
                         std::size_t max_messages, core::Checkpoint* ckpt,
                         std::string_view tag, PartyId opener)
    : channel_(channel), alice_(alice), bob_(bob),
      max_messages_(max_messages), ckpt_(ckpt), tag_(tag), sender_(opener) {
  if (ckpt_ != nullptr && ckpt_->has(tag_)) {
    replay_ = read_messages(ckpt_->state());
    ckpt_->note_restore();
  }
  out_ = (opener == PartyId::kAlice ? alice_ : bob_).start();
}

void TwoPartyRun::hand_over() {
  Party& sender = sender_ == PartyId::kAlice ? alice_ : bob_;
  Party& receiver = sender_ == PartyId::kAlice ? bob_ : alice_;
  std::optional<Outgoing> reply = receiver.on_message(delivered_);
  if (keep_floor_ && reply.has_value()) {
    throw std::logic_error(
        "run_two_party: a party replied before its peer's turn ended");
  }
  // The sender's next message is built before the delivered one goes
  // back to the pool, as a reply is: either way the new message never
  // takes the storage of the message it follows.
  if (keep_floor_) out_ = sender.next();
  // No party holds a message past on_message, so its storage goes back to
  // the session's pool for a later message to be built in.
  channel_.buffer_pool().release(std::move(delivered_));
  if (!keep_floor_) {
    out_ = std::move(reply);
    sender_ = other(sender_);
    return;
  }
  if (!out_.has_value()) {
    throw std::logic_error(
        "run_two_party: a party kept the floor with nothing to send");
  }
}

bool TwoPartyRun::step() {
  if (pending_) {
    pending_ = false;
    hand_over();
  }
  while (out_.has_value()) {
    if (++messages_ > max_messages_) {
      throw std::runtime_error("run_two_party: message budget exceeded");
    }
    if (out_->boundary && out_->keep_floor) {
      throw std::logic_error(
          "run_two_party: a checkpoint boundary must end its sender's turn");
    }
    keep_floor_ = out_->keep_floor;
    const bool live = messages_ > replay_.size();
    if (live) {
      enter(out_->phase);
      delivered_ = channel_.send(sender_, std::move(out_->bits),
                                 std::string(out_->label));
    } else {
      delivered_ = std::move(replay_[messages_ - 1]);
    }
    const bool boundary = out_->boundary && live;
    if (ckpt_ != nullptr) {
      append_message(log_, delivered_);
      boundaries_ += out_->boundary ? 1 : 0;
      if (boundary) {
        ckpt_->save(tag_, boundaries_, log_, channel_.cost().bits_total);
      }
    }
    if (boundary) {
      pending_ = true;
      return false;
    }
    hand_over();
  }
  enter({});
  if (!alice_.done() || !bob_.done()) {
    throw std::runtime_error(
        "run_two_party: conversation stalled before both parties finished");
  }
  return true;
}

void run_two_party(Channel& channel, Party& alice, Party& bob,
                   std::size_t max_messages, core::Checkpoint* ckpt,
                   std::string_view tag, PartyId opener) {
  TwoPartyRun run(channel, alice, bob, max_messages, ckpt, tag, opener);
  while (!run.step()) {
  }
}

}  // namespace setint::sim

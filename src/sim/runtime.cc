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

// The tracer phase live messages are metered under, a '/'-separated path
// below the caller's span. Moving to the next message's path pops and
// pushes only the segments that change, so consecutive messages of one
// phase share a single span entry; leaving the run (also by exception)
// closes every open segment.
class PhaseSpan {
 public:
  explicit PhaseSpan(obs::Tracer* tracer) : tracer_(tracer) {}
  ~PhaseSpan() { enter({}); }
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

  void enter(std::string_view phase) {
    if (phase == phase_ || tracer_ == nullptr) return;
    const std::size_t keep = shared_prefix(phase_, phase);
    for (std::size_t n = segments(phase_.substr(keep)); n > 0; --n) {
      tracer_->pop();
    }
    for (std::string_view rest = phase.substr(keep); !rest.empty();) {
      if (rest.front() == '/') rest.remove_prefix(1);
      const std::size_t end = std::min(rest.find('/'), rest.size());
      tracer_->push(rest.substr(0, end));
      rest.remove_prefix(end);
    }
    phase_ = phase;
  }

 private:
  // Length of the leading whole segments two paths share.
  static std::size_t shared_prefix(std::string_view a, std::string_view b) {
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
  static std::size_t segments(std::string_view rest) {
    if (!rest.empty() && rest.front() == '/') rest.remove_prefix(1);
    return rest.empty()
               ? 0
               : 1 + static_cast<std::size_t>(
                         std::count(rest.begin(), rest.end(), '/'));
  }

  obs::Tracer* tracer_;
  std::string_view phase_;
};

}  // namespace

void run_two_party(Channel& channel, Party& alice, Party& bob,
                   std::size_t max_messages, core::Checkpoint* ckpt,
                   std::string_view tag) {
  std::vector<util::BitBuffer> replay;
  if (ckpt != nullptr && ckpt->has(tag)) {
    replay = read_messages(ckpt->state());
    ckpt->note_restore();
  }
  util::BitBuffer log;
  std::uint64_t boundaries = 0;
  PhaseSpan span(channel.tracer());

  std::optional<Outgoing> out = alice.start();
  PartyId sender = PartyId::kAlice;
  std::size_t messages = 0;
  while (out.has_value()) {
    if (++messages > max_messages) {
      throw std::runtime_error("run_two_party: message budget exceeded");
    }
    util::BitBuffer delivered;
    const bool live = messages > replay.size();
    if (live) {
      span.enter(out->phase);
      delivered = channel.send(sender, std::move(out->bits),
                               std::string(out->label));
    } else {
      delivered = std::move(replay[messages - 1]);
    }
    if (ckpt != nullptr) {
      append_message(log, delivered);
      boundaries += out->boundary ? 1 : 0;
      if (out->boundary && live) {
        ckpt->save(tag, boundaries, log, channel.cost().bits_total);
      }
    }
    Party& receiver = sender == PartyId::kAlice ? bob : alice;
    out = receiver.on_message(delivered);
    sender = other(sender);
  }
  if (!alice.done() || !bob.done()) {
    throw std::runtime_error(
        "run_two_party: conversation stalled before both parties finished");
  }
}

}  // namespace setint::sim

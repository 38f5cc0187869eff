#include "obs/recorder.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <ostream>

#include "obs/json.h"

namespace setint::obs {

const char* flight_event_kind_name(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kMessage: return "message";
    case FlightEventKind::kFault: return "fault";
    case FlightEventKind::kIntegrityFailure: return "integrity_failure";
    case FlightEventKind::kLimitBreach: return "limit_breach";
    case FlightEventKind::kRetry: return "retry";
    case FlightEventKind::kBackstop: return "backstop";
    case FlightEventKind::kDegrade: return "degrade";
    case FlightEventKind::kIncident: return "incident";
    case FlightEventKind::kCrash: return "crash";
    case FlightEventKind::kPartition: return "partition";
    case FlightEventKind::kRestart: return "restart";
    case FlightEventKind::kBudgetExhausted: return "budget_exhausted";
    case FlightEventKind::kBreakerOpen: return "breaker_open";
    case FlightEventKind::kShed: return "shed";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity) {
  capacity_ = std::bit_ceil(std::max<std::size_t>(capacity, 8));
  mask_ = capacity_ - 1;
  ring_ = std::make_unique<FlightEvent[]>(capacity_);
}

void FlightRecorder::record(FlightEventKind kind, std::string_view label,
                            int party, std::uint64_t bits,
                            std::uint64_t bit_offset) {
  const std::uint64_t seq = head_.load(std::memory_order_relaxed);
  FlightEvent& slot = ring_[seq & mask_];
  slot.sequence = seq;
  slot.bit_offset = bit_offset;
  slot.bits = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(bits, ~std::uint32_t{0}));
  slot.party = static_cast<std::int8_t>(party);
  slot.kind = kind;
  const std::size_t n =
      std::min(label.size(), FlightEvent::kLabelCapacity - 1);
  std::memcpy(slot.label, label.data(), n);
  slot.label[n] = '\0';
  // Publish: a consumer that acquire-loads the head sees this event fully
  // written.
  head_.store(seq + 1, std::memory_order_release);
}

void FlightRecorder::set_dump_path(std::string prefix,
                                   std::uint64_t max_dumps) {
  dump_prefix_ = std::move(prefix);
  max_dumps_ = max_dumps;
}

void FlightRecorder::replace_context(
    std::vector<std::pair<std::string, std::string>> context) {
  context_ = std::move(context);
}

void FlightRecorder::mix_payload(std::uint64_t fingerprint) {
  // splitmix64-style fold: order-sensitive, cheap, and stable across
  // platforms (the digest is compared across separate process runs).
  std::uint64_t x = transcript_digest_ ^
                    (fingerprint + 0x9e3779b97f4a7c15ull +
                     (transcript_digest_ << 6) + (transcript_digest_ >> 2));
  transcript_digest_ = x;
  deliveries_ += 1;
}

void FlightRecorder::incident(std::string_view reason) {
  record(FlightEventKind::kIncident, reason);
  incidents_ += 1;
  if (dump_prefix_.empty() || dump_files_.size() >= max_dumps_) return;
  const std::string path =
      dump_prefix_ + "." + std::to_string(incidents_) + ".jsonl";
  std::ofstream os(path);
  if (!os) return;  // post-mortems are best-effort; never fail the run
  dump_jsonl(os, reason);
  dump_files_.push_back(path);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t n = std::min<std::uint64_t>(head, capacity_);
  std::vector<FlightEvent> out;
  out.reserve(n);
  for (std::uint64_t seq = head - n; seq < head; ++seq) {
    out.push_back(ring_[seq & mask_]);
  }
  return out;
}

void FlightRecorder::dump_jsonl(std::ostream& os,
                                std::string_view reason) const {
  const std::vector<FlightEvent> events = snapshot();
  {
    Json meta = Json::object();
    meta["kind"] = "meta";
    if (!reason.empty()) meta["reason"] = reason;
    meta["recorded"] = recorded();
    meta["overwritten"] = overwritten();
    meta["capacity"] = static_cast<std::uint64_t>(capacity_);
    meta["incidents"] = incidents_;
    // Decimal strings: the digest is a full 64-bit value and must survive
    // a JSON round-trip exactly (parsers may go through double).
    meta["transcript_digest"] = std::to_string(transcript_digest_);
    meta["deliveries"] = deliveries_;
    if (!context_.empty()) {
      Json ctx = Json::object();
      for (const auto& [k, v] : context_) ctx[k] = v;
      meta["context"] = std::move(ctx);
    }
    os << meta.dump() << '\n';
  }
  for (const FlightEvent& e : events) {
    Json line = Json::object();
    line["seq"] = e.sequence;
    line["kind"] = flight_event_kind_name(e.kind);
    if (e.party >= 0) line["party"] = static_cast<std::int64_t>(e.party);
    if (e.kind == FlightEventKind::kMessage) {
      line["bits"] = static_cast<std::uint64_t>(e.bits);
    }
    line["bit_offset"] = e.bit_offset;
    line["label"] = std::string_view(e.label);
    os << line.dump() << '\n';
  }
}

}  // namespace setint::obs

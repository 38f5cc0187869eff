// Flight recorder: a lock-free, fixed-capacity ring buffer of the last N
// protocol events, dumped as JSONL when a failure path fires.
//
// The tracer answers "where did the bits go" for a run you planned to
// observe; the recorder answers "what just happened" for a run that
// failed. A session keeps one FlightRecorder attached to its channel
// (sim::Channel::set_recorder / IntersectOptions::recorder); every send,
// injected fault, integrity failure, resource-limit breach, retry and
// degradation appends one fixed-size event — no allocation, no lock, one
// masked index and a release store — and the ring keeps only the newest
// `capacity()` events. When an incident fires (ChannelIntegrityError or
// ResourceLimitError thrown at the channel, a retry or a degradation in
// the recovery layer), the recorder snapshots the ring to a JSONL
// post-mortem file automatically if a dump path is configured.
//
// Concurrency contract (matches docs/OBSERVABILITY.md § thread affinity):
// record() is wait-free and belongs to the single session thread (the
// producer). The ring publishes each event with a release store, so a
// consumer on another thread that loads the head with acquire sees fully
// written events for every index below it — but slots more than
// `capacity()` behind the head are being rewritten and must not be read.
// snapshot()/dump_jsonl() therefore read only the newest capacity()
// events, and are exact when the session is quiescent (the in-tree use:
// incident dumps run on the session thread itself).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace setint::obs {

enum class FlightEventKind : std::uint8_t {
  kMessage = 0,      // a metered Channel::send delivery
  kFault,            // the fault plan damaged/duplicated/delayed a frame
  kIntegrityFailure, // a frame failed the delivery-side checksum
  kLimitBreach,      // a resource cap fired (core::ResourceLimitError)
  kRetry,            // the recovery layer started a fresh attempt
  kBackstop,         // fell back to the deterministic exchange
  kDegrade,          // retry budget exhausted; degraded superset answer
  kIncident,         // explicit incident marker (dumps the ring)
  kCrash,            // chaos: a send hit a crashed/dead endpoint
  kPartition,        // chaos: a send hit a partitioned link
  kRestart,          // recovery layer resumed after a crash/partition wait
  kBudgetExhausted,  // a session budget dimension tripped (core/budget.h)
  kBreakerOpen,      // a per-link circuit breaker tripped open
  kShed,             // admission control shed a pair-session pre-start
};

// Stable lowercase name ("message", "integrity_failure", ...).
const char* flight_event_kind_name(FlightEventKind kind);

// Fixed-size POD event record. Labels are truncated to fit — the recorder
// must never allocate on the hot path.
struct FlightEvent {
  static constexpr std::size_t kLabelCapacity = 30;

  std::uint64_t sequence = 0;    // monotone per recorder, starts at 0
  std::uint64_t bit_offset = 0;  // channel bits_total at record time
  std::uint32_t bits = 0;        // message payload size (kMessage only)
  std::int8_t party = -1;        // sim::index(from) for kMessage, else -1
  FlightEventKind kind = FlightEventKind::kMessage;
  char label[kLabelCapacity] = {};  // NUL-terminated, possibly truncated
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  // Capacity is rounded up to a power of two (minimum 8).
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Appends one event; wait-free, overwrites the oldest event when full.
  void record(FlightEventKind kind, std::string_view label, int party = -1,
              std::uint64_t bits = 0, std::uint64_t bit_offset = 0);

  // Records a kIncident event and, if a dump path is configured and the
  // dump budget is not exhausted, writes the ring as JSONL to
  // "<prefix>.<incident-index>.jsonl".
  void incident(std::string_view reason);

  // Enables automatic post-mortem dumps. `max_dumps` bounds how many
  // files one recorder will write (retry storms fire many incidents).
  void set_dump_path(std::string prefix, std::uint64_t max_dumps = 8);

  // Replay context: string key/value pairs emitted under "context" in the
  // dump meta line. The facade replaces it with to_context(spec)
  // (src/run_spec.h), the one codec of the session's setint::RunSpec, so
  // every incident dump is a self-contained reproduction recipe that
  // tools/replay reads back with parse_context. Each call replaces the
  // whole context, so no key of an earlier session survives. Not on the
  // hot path.
  void replace_context(
      std::vector<std::pair<std::string, std::string>> context);
  const std::vector<std::pair<std::string, std::string>>& context() const {
    return context_;
  }

  // Folds one delivered payload fingerprint into the running transcript
  // digest (called by sim::Channel per successful delivery). Order- and
  // content-sensitive: two sessions have equal digests iff they delivered
  // the same bodies in the same order (modulo fingerprint collisions) —
  // the bit-for-bit assertion behind tools/replay.
  void mix_payload(std::uint64_t fingerprint);
  std::uint64_t transcript_digest() const { return transcript_digest_; }
  std::uint64_t deliveries() const { return deliveries_; }

  // Newest-to-oldest ordering is chronological: events are returned
  // oldest first, at most capacity() of them.
  std::vector<FlightEvent> snapshot() const;

  // One JSON object per line, oldest event first, preceded by one meta
  // line {"kind":"meta","reason":...,"recorded":N,"overwritten":M,...}.
  void dump_jsonl(std::ostream& os, std::string_view reason = {}) const;

  std::size_t capacity() const { return capacity_; }
  // Total events ever recorded (not capped by capacity).
  std::uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  // Events lost to ring wraparound.
  std::uint64_t overwritten() const {
    const std::uint64_t n = recorded();
    return n > capacity_ ? n - capacity_ : 0;
  }
  std::uint64_t incidents() const { return incidents_; }
  const std::vector<std::string>& dump_files() const { return dump_files_; }

 private:
  std::size_t capacity_;  // power of two
  std::size_t mask_;
  std::unique_ptr<FlightEvent[]> ring_;
  std::atomic<std::uint64_t> head_{0};  // next sequence number
  std::uint64_t incidents_ = 0;
  std::string dump_prefix_;
  std::uint64_t max_dumps_ = 0;
  std::vector<std::string> dump_files_;
  std::vector<std::pair<std::string, std::string>> context_;
  std::uint64_t transcript_digest_ = 0;
  std::uint64_t deliveries_ = 0;
};

}  // namespace setint::obs

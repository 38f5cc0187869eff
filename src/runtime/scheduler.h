// Event-loop scheduler for sans-IO protocol machines.
//
// One Scheduler multiplexes thousands to millions of core::ProtocolMachine
// sessions on a single thread over a SIMULATED tick clock: no sockets, no
// wall time, no OS scheduler — every step of every session is an event in
// a deterministic priority queue, and each session has at most one
// pending event. Per tick the due sessions are visited in a seeded
// Fisher-Yates order and each takes one machine->step(); a session left
// running takes its next step its own deterministic latency later. The
// seeded interleaving across sessions is the adversarial step schedule
// the differential tests run under.
//
// Determinism + thread invariance (the load-bearing property): a session's
// entire timeline — start tick, step latency, every tick it wakes on — is
// a pure function of (options.seed, session key). Sessions never
// interact, so ALL aggregate statistics are independent of how the
// sessions are sharded across schedulers: run_service() with 1, 2 or N
// threads produces bit-identical records, histograms, digests and peak
// concurrency. bench/exp_service gates on exactly this, and
// tests/sansio_test.cc pins the per-session digests against blocking runs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "obs/hdr_histogram.h"

namespace setint::runtime {

struct SchedulerOptions {
  std::uint64_t seed = 1;              // schedule randomness master seed
  bool shuffle = true;                 // seeded per-tick shuffle of due ones
  std::uint64_t max_step_latency = 4;  // per-session step delay in [1, max]
  std::uint64_t arrival_window = 0;    // session start ticks in [0, window]
};

// Everything the differential harness needs to compare one scheduler-driven
// session against its blocking reference, plus the timeline the service
// bench aggregates. Pure function of (options.seed, key, machine
// inputs) — never of sharding or thread count.
struct SessionRecord {
  std::uint64_t key = 0;           // caller-assigned global session key
  std::uint64_t start_tick = 0;
  std::uint64_t end_tick = 0;
  core::MachineStatus final_status = core::MachineStatus::kIdle;
  std::uint64_t steps = 0;
  std::uint64_t step_latency = 0;  // this session's deterministic step delay
  std::uint64_t bits_total = 0;
  std::uint64_t digest = 0;        // streaming transcript digest
  std::uint64_t result_fingerprint = 0;
};

class Scheduler {
 public:
  explicit Scheduler(const SchedulerOptions& options);

  // Registers a session under `key` (the GLOBAL session identity: every
  // per-session schedule draw mixes the key, not the local index, so a
  // session's timeline survives resharding). Call before run().
  void add(std::unique_ptr<core::ProtocolMachine> machine, std::uint64_t key);

  // Runs the event loop until every session is kDone or kFailed.
  void run();

  core::ProtocolMachine& machine(std::size_t local_index);
  const SessionRecord& record(std::size_t local_index) const;
  const std::vector<SessionRecord>& records() const { return records_; }

  std::uint64_t completed() const { return completed_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t events_processed() const { return events_processed_; }
  const obs::HdrHistogram& completion_ticks() const { return completion_; }

 private:
  struct Event {
    std::uint64_t tick = 0;
    std::uint64_t seq = 0;  // FIFO tiebreak: same-tick order is insertion order
    std::uint32_t session = 0;
    // Later in (tick, seq) order; std::greater<> on it makes the min-heap.
    bool operator>(const Event& o) const {
      return tick != o.tick ? tick > o.tick : seq > o.seq;
    }
  };
  void schedule(std::uint32_t idx, std::uint64_t tick);
  void step(std::uint32_t idx);

  SchedulerOptions options_;
  std::vector<std::unique_ptr<core::ProtocolMachine>> machines_;
  std::vector<SessionRecord> records_;
  std::vector<Event> heap_;  // min-heap on (tick, seq)
  std::uint64_t next_seq_ = 0;
  std::uint64_t now_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  obs::HdrHistogram completion_;
  bool ran_ = false;
};

// A sharded multi-threaded service run: machine g lives on shard g % S and
// keeps global key g, so every aggregate below is identical for any thread
// count (wall-clock aside). Shards are plain single-threaded Schedulers —
// the thread-affinity contract of docs/OBSERVABILITY.md holds because no
// session, channel or histogram is ever touched by two threads.
struct ServiceRun {
  std::vector<std::unique_ptr<Scheduler>> shards;

  // The machine registered under global key g.
  core::ProtocolMachine& machine(std::size_t g);
  const SessionRecord& record(std::size_t g) const;

  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  // True global peak concurrency, recomputed by an endpoint sweep over all
  // shards' session intervals (per-shard peaks can max at different ticks,
  // so summing them would overcount and break thread invariance).
  std::uint64_t peak_inflight = 0;
  std::uint64_t events_processed = 0;
  obs::HdrHistogram completion_ticks;  // exact merge across shards
  // Order-invariant fold of every session's (key, digest, result
  // fingerprint) — the one number exp_service compares across thread
  // counts and against the blocking reference fleet.
  std::uint64_t digest_fold = 0;
};

// Runs `machines` (machine g under global key g) across
// resolve_threads(threads) shards via runtime::run_sessions.
ServiceRun run_service(std::vector<std::unique_ptr<core::ProtocolMachine>> machines,
                       const SchedulerOptions& options, int threads);

// The order-invariant per-session fold run_service accumulates; exposed so
// a blocking reference fleet can compute the identical number.
std::uint64_t fold_session(std::uint64_t key, std::uint64_t digest,
                           std::uint64_t result_fingerprint);

}  // namespace setint::runtime

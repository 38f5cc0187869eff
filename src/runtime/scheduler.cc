#include "runtime/scheduler.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "runtime/batch.h"
#include "util/rng.h"

namespace setint::runtime {

namespace {

// Domain-separation tags for the per-session schedule draws. Everything
// mixes the GLOBAL session key so resharding cannot move a timeline.
constexpr std::uint64_t kLatencyTag = 0x5ced01a7;
constexpr std::uint64_t kArrivalTag = 0x5ceda221;
constexpr std::uint64_t kShuffleTag = 0x5ced5f1e;

}  // namespace

Scheduler::Scheduler(const SchedulerOptions& options) : options_(options) {
  if (options_.max_step_latency == 0) options_.max_step_latency = 1;
}

void Scheduler::add(std::unique_ptr<core::ProtocolMachine> machine,
                    std::uint64_t key) {
  if (ran_) throw std::logic_error("Scheduler::add after run");
  machines_.push_back(std::move(machine));
  SessionRecord rec;
  rec.key = key;
  rec.step_latency =
      1 + util::mix64(options_.seed, util::mix64(key, kLatencyTag)) %
              options_.max_step_latency;
  rec.start_tick =
      options_.arrival_window == 0
          ? 0
          : util::mix64(options_.seed, util::mix64(key, kArrivalTag)) %
                (options_.arrival_window + 1);
  records_.push_back(rec);
}

core::ProtocolMachine& Scheduler::machine(std::size_t local_index) {
  return *machines_.at(local_index);
}

const SessionRecord& Scheduler::record(std::size_t local_index) const {
  return records_.at(local_index);
}

void Scheduler::schedule(std::uint32_t idx, std::uint64_t tick) {
  heap_.push_back({tick, next_seq_++, idx});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

void Scheduler::step(std::uint32_t idx) {
  core::ProtocolMachine& m = *machines_[idx];
  SessionRecord& rec = records_[idx];
  events_processed_ += 1;
  const core::MachineStatus status = m.step();
  if (status == core::MachineStatus::kRunning) {
    schedule(idx, now_ + rec.step_latency);
    return;
  }
  rec.end_tick = now_;
  rec.final_status = status;
  rec.steps = m.steps();
  rec.bits_total = m.cost().bits_total;
  rec.digest = m.digest();
  rec.result_fingerprint =
      status == core::MachineStatus::kDone ? m.result_fingerprint() : 0;
  completion_.observe(rec.end_tick - rec.start_tick + 1);
  if (status == core::MachineStatus::kDone) {
    completed_ += 1;
  } else {
    failed_ += 1;
  }
}

void Scheduler::run() {
  if (ran_) throw std::logic_error("Scheduler::run called twice");
  ran_ = true;
  for (std::size_t i = 0; i < machines_.size(); ++i) {
    schedule(static_cast<std::uint32_t>(i), records_[i].start_tick);
  }

  std::vector<std::uint32_t> due;  // sessions due this tick, seq order
  while (!heap_.empty()) {
    now_ = heap_.front().tick;
    due.clear();
    while (!heap_.empty() && heap_.front().tick == now_) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      due.push_back(heap_.back().session);
      heap_.pop_back();
    }
    // Seeded Fisher-Yates over the due sessions: adversarial interleaving
    // across sessions. A session's own steps stay in order because it has
    // at most one pending event.
    if (options_.shuffle && due.size() > 1) {
      util::Rng shuffle_rng(
          util::mix64(options_.seed, util::mix64(now_, kShuffleTag)));
      for (std::size_t i = due.size() - 1; i > 0; --i) {
        std::swap(due[i], due[shuffle_rng.below(i + 1)]);
      }
    }
    for (const std::uint32_t session : due) step(session);
  }
  // Every session must have resolved; a live machine with an empty heap
  // would mean the loop lost a step (a bug worth failing loudly on).
  for (std::size_t i = 0; i < machines_.size(); ++i) {
    const core::MachineStatus status = machines_[i]->status();
    if (status != core::MachineStatus::kDone &&
        status != core::MachineStatus::kFailed) {
      throw std::logic_error("scheduler: session " +
                             std::to_string(records_[i].key) +
                             " stalled with no pending events");
    }
  }
}

std::uint64_t fold_session(std::uint64_t key, std::uint64_t digest,
                           std::uint64_t result_fingerprint) {
  return util::mix64(util::mix64(key + 1, digest), result_fingerprint);
}

core::ProtocolMachine& ServiceRun::machine(std::size_t g) {
  const std::size_t shard_count = shards.size();
  return shards[g % shard_count]->machine(g / shard_count);
}

const SessionRecord& ServiceRun::record(std::size_t g) const {
  const std::size_t shard_count = shards.size();
  return shards[g % shard_count]->record(g / shard_count);
}

ServiceRun run_service(
    std::vector<std::unique_ptr<core::ProtocolMachine>> machines,
    const SchedulerOptions& options, int threads) {
  ServiceRun out;
  const std::size_t shard_count = static_cast<std::size_t>(std::min<std::size_t>(
      std::max(1, resolve_threads(threads)),
      std::max<std::size_t>(1, machines.size())));
  out.shards.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    out.shards.push_back(std::make_unique<Scheduler>(options));
  }
  for (std::size_t g = 0; g < machines.size(); ++g) {
    out.shards[g % shard_count]->add(std::move(machines[g]), g);
  }
  run_sessions(shard_count, static_cast<int>(shard_count),
               [&](std::size_t i) { out.shards[i]->run(); });
  // Aggregate. Histogram merges are exact and commutative; the digest fold
  // is an order-invariant XOR; peak concurrency needs the interval sweep.
  std::vector<std::uint64_t> starts, ends;
  for (const auto& shard : out.shards) {
    out.completed += shard->completed();
    out.failed += shard->failed();
    out.events_processed += shard->events_processed();
    out.completion_ticks.merge(shard->completion_ticks());
    for (const SessionRecord& rec : shard->records()) {
      out.digest_fold ^= fold_session(rec.key, rec.digest, rec.result_fingerprint);
      starts.push_back(rec.start_tick);
      ends.push_back(rec.end_tick);
    }
  }
  std::sort(starts.begin(), starts.end());
  std::sort(ends.begin(), ends.end());
  std::size_t si = 0, ei = 0;
  std::uint64_t live = 0;
  while (si < starts.size()) {
    // A session occupies [start, end] inclusive: pop ends strictly before
    // the next start.
    if (ends[ei] < starts[si]) {
      live -= 1;
      ei += 1;
    } else {
      live += 1;
      si += 1;
      out.peak_inflight = std::max(out.peak_inflight, live);
    }
  }
  return out;
}

}  // namespace setint::runtime

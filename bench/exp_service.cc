// S — sans-IO service engine: sessions/sec and simulated completion
// latency for the runtime/scheduler.h event loop multiplexing 10^4+
// interleaved protocol machines per thread (docs/PROTOCOL.md § sans-IO
// engine).
//
// Sections and acceptance gates (exit code 1 if any fails):
//   * S1 mixed fleet, every core protocol kind, ALL sessions concurrent:
//     every scheduler-driven session's streaming transcript digest must
//     be bit-identical to a blocking run of the same seed (no sampling —
//     every session is checked), zero failed sessions, and the fleet's
//     peak concurrency must reach the full session count (>= 10^4 in
//     --smoke on one core);
//   * S2 Zipf-distributed set sizes (inverse-CDF rank sampling over
//     theta in {0, 0.8, 1.2}): p50/p99 session completion ticks, plus
//     throughput;
//   * S3 thread invariance: the identical fleet run with 1, 2 and
//     --threads shards must produce the same digest fold, completion
//     counts, peak concurrency, event count and completion histogram
//     (wall-clock aside).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "core/basic_intersection.h"
#include "core/bucket_eq.h"
#include "core/engine.h"
#include "core/verification_tree.h"
#include "eq/amortized_eq.h"
#include "runtime/scheduler.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace {

using namespace setint;

constexpr std::uint64_t kUniverse = std::uint64_t{1} << 16;

// One session's deterministic shape: protocol kind round-robin, input
// sizes from the per-session substream (S2 overrides the size draw).
core::MachineConfig session_config(std::uint64_t seed, std::uint64_t g,
                                   std::size_t k) {
  core::MachineConfig cfg;
  cfg.seed = util::mix64(seed, 2 * g + 1);
  cfg.nonce = util::mix64(seed, util::mix64(0x5e55, g));
  cfg.universe = kUniverse;
  util::Rng rng(util::mix64(cfg.seed, 0x15e7));
  const auto pair =
      util::random_set_pair(rng, cfg.universe, k, rng.below(k + 1));
  cfg.s = pair.s;
  cfg.t = pair.t;
  cfg.eq_instances = 4;
  return cfg;
}

std::string_view kind_of(std::uint64_t g) {
  return core::kMachineKinds[g % 4];
}

// Blocking engine reference: the bare protocol function over a
// digest-enabled channel — no sans-IO engine, no scheduler.
// What S1 compares EVERY scheduler-driven session to.
struct BlockingRef {
  std::uint64_t digest = 0;
  std::uint64_t bits = 0;
};

BlockingRef blocking_reference(std::string_view kind,
                               const core::MachineConfig& cfg) {
  sim::Channel channel;
  channel.enable_digest();
  const sim::SharedRandomness shared(cfg.seed);
  if (kind == "bi") {
    core::basic_intersection(channel, shared, cfg.nonce, cfg.universe, cfg.s,
                             cfg.t, cfg.bi_target_failure);
  } else if (kind == "vt") {
    core::verification_tree_intersection(channel, shared, cfg.nonce,
                                         cfg.universe, cfg.s, cfg.t, cfg.tree);
  } else if (kind == "bucket_eq") {
    core::bucket_eq_intersection(channel, shared, cfg.nonce, cfg.universe,
                                 cfg.s, cfg.t, cfg.bucket_eq_strength);
  } else {
    std::vector<util::BitBuffer> xs, ys;
    core::make_amortized_eq_inputs(
        cfg.seed, cfg.eq_instances != 0
                      ? cfg.eq_instances
                      : std::max<std::size_t>(cfg.s.size(), 4),
        &xs, &ys);
    eq::amortized_equality(channel, shared, cfg.nonce, xs, ys);
  }
  return {channel.digest(), channel.cost().bits_total};
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Inverse-CDF sample of a rank in [1, ranks] from the cumulative Zipf
// weights `cdf` (weight r^-theta).
std::size_t zipf_rank(util::Rng& rng, std::size_t ranks,
                      const std::vector<double>& cdf) {
  const double u = rng.unit() * cdf[ranks - 1];
  std::size_t lo = 0, hi = ranks - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (cdf[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo + 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace setint;
  auto rep = bench::Reporter::FromArgs("service", argc, argv);
  bool ok = true;

  const std::size_t fleet =
      rep.smoke() ? std::size_t{10'000} : std::size_t{40'000};

  // ---- S1: mixed fleet, digest gate against the blocking engine ----
  {
    const std::uint64_t seed = rep.seed_for(1);
    std::vector<BlockingRef> refs(fleet);
    std::vector<std::unique_ptr<core::ProtocolMachine>> machines;
    machines.reserve(fleet);
    const auto t_build = std::chrono::steady_clock::now();
    for (std::size_t g = 0; g < fleet; ++g) {
      util::Rng size_rng(util::mix64(seed, util::mix64(0x512e, g)));
      const std::size_t k = 4 + size_rng.below(13);  // 4..16
      core::MachineConfig cfg = session_config(seed, g, k);
      refs[g] = blocking_reference(kind_of(g), cfg);
      machines.push_back(core::make_machine(kind_of(g), std::move(cfg)));
    }
    const double build_ms = ms_since(t_build);

    runtime::SchedulerOptions opts;
    opts.seed = rep.seed_for(1, 2);
    opts.shuffle = true;
    opts.max_step_latency = 4;
    opts.arrival_window = 0;  // everyone concurrent: peak == fleet
    const auto t_run = std::chrono::steady_clock::now();
    runtime::ServiceRun run =
        runtime::run_service(std::move(machines), opts, /*threads=*/1);
    const double run_ms = ms_since(t_run);

    std::uint64_t digest_mismatches = 0;
    std::uint64_t bits_mismatches = 0;
    for (std::size_t g = 0; g < fleet; ++g) {
      const runtime::SessionRecord& rec = run.record(g);
      if (rec.digest != refs[g].digest) digest_mismatches += 1;
      if (rec.bits_total != refs[g].bits) bits_mismatches += 1;
    }
    const bool s1_ok = digest_mismatches == 0 && bits_mismatches == 0 &&
                       run.failed == 0 && run.completed == fleet &&
                       run.peak_inflight >= std::min<std::uint64_t>(fleet,
                                                                    10'000);
    ok = ok && s1_ok;

    auto& table = rep.table(
        "S1: mixed fleet vs blocking engine  (4 kinds round-robin, n=2^16)",
        {"sessions", "completed", "failed", "peak_inflight",
         "digest_mismatches", "bits_mismatches", "events",
         "gate", "sessions/s (wall_ms)", "build sessions/s (wall_ms)"});
    table.add_row(
        {bench::fmt_u64(fleet), bench::fmt_u64(run.completed),
         bench::fmt_u64(run.failed), bench::fmt_u64(run.peak_inflight),
         bench::fmt_u64(digest_mismatches), bench::fmt_u64(bits_mismatches),
         bench::fmt_u64(run.events_processed),
         s1_ok ? "PASS" : "FAIL",
         bench::fmt_double(static_cast<double>(fleet) / (run_ms / 1000.0), 0),
         bench::fmt_double(static_cast<double>(fleet) / (build_ms / 1000.0),
                           0)});
  }

  // ---- S2: Zipf-distributed set sizes -> completion latency ----
  {
    const std::size_t sessions = rep.smoke() ? 2'000 : 8'000;
    constexpr std::size_t kRanks = 61;  // sizes 4..64
    auto& table = rep.table(
        "S2: Zipf set sizes -> simulated latency  (sizes 4..64, n=2^16)",
        {"theta", "sessions", "complete_p50", "complete_p99", "peak_inflight",
         "events", "sessions/s (wall_ms)"});
    for (const double theta : {0.0, 0.8, 1.2}) {
      const std::uint64_t seed =
          rep.seed_for(2, static_cast<std::uint64_t>(theta * 10));
      std::vector<double> cdf(kRanks);
      double acc = 0.0;
      for (std::size_t r = 0; r < kRanks; ++r) {
        acc += 1.0 / std::pow(static_cast<double>(r + 1), theta);
        cdf[r] = acc;
      }
      std::vector<std::unique_ptr<core::ProtocolMachine>> machines;
      machines.reserve(sessions);
      for (std::size_t g = 0; g < sessions; ++g) {
        util::Rng size_rng(util::mix64(seed, util::mix64(0x21f, g)));
        const std::size_t k = 3 + zipf_rank(size_rng, kRanks, cdf);
        machines.push_back(
            core::make_machine(kind_of(g), session_config(seed, g, k)));
      }
      runtime::SchedulerOptions opts;
      opts.seed = util::mix64(seed, 0x5c4e);
      opts.max_step_latency = 8;
      opts.arrival_window = 256;
      const auto t_run = std::chrono::steady_clock::now();
      runtime::ServiceRun run =
          runtime::run_service(std::move(machines), opts, /*threads=*/1);
      const double run_ms = ms_since(t_run);
      ok = ok && run.failed == 0 && run.completed == sessions;
      table.add_row(
          {bench::fmt_double(theta, 1), bench::fmt_u64(sessions),
           bench::fmt_u64(run.completion_ticks.p50()),
           bench::fmt_u64(run.completion_ticks.p99()),
           bench::fmt_u64(run.peak_inflight),
           bench::fmt_u64(run.events_processed),
           bench::fmt_double(static_cast<double>(sessions) / (run_ms / 1000.0),
                             0)});
    }
  }

  // ---- S3: thread invariance of every aggregate ----
  {
    const std::size_t sessions = rep.smoke() ? 2'000 : 6'000;
    const std::uint64_t seed = rep.seed_for(3);
    const int max_threads = rep.threads() > 1 ? rep.threads() : 4;
    runtime::SchedulerOptions opts;
    opts.seed = util::mix64(seed, 0x731d);
    opts.max_step_latency = 4;
    opts.arrival_window = 64;

    auto build = [&] {
      std::vector<std::unique_ptr<core::ProtocolMachine>> machines;
      machines.reserve(sessions);
      for (std::size_t g = 0; g < sessions; ++g) {
        util::Rng size_rng(util::mix64(seed, util::mix64(0x3e3, g)));
        const std::size_t k = 4 + size_rng.below(13);
        machines.push_back(
            core::make_machine(kind_of(g), session_config(seed, g, k)));
      }
      return machines;
    };

    auto& table = rep.table(
        "S3: thread invariance  (same fleet, 1/2/N shards)",
        {"threads", "sessions", "completed", "failed", "peak_inflight",
         "digest_fold", "complete_p99", "gate", "sessions/s (wall_ms)"});
    runtime::ServiceRun base;
    bool have_base = false;
    for (const int threads : {1, 2, max_threads}) {
      const auto t_run = std::chrono::steady_clock::now();
      runtime::ServiceRun run = runtime::run_service(build(), opts, threads);
      const double run_ms = ms_since(t_run);
      bool same = true;
      if (have_base) {
        same = run.digest_fold == base.digest_fold &&
               run.completed == base.completed && run.failed == base.failed &&
               run.peak_inflight == base.peak_inflight &&
               run.events_processed == base.events_processed &&
               run.completion_ticks.count() == base.completion_ticks.count() &&
               run.completion_ticks.sum() == base.completion_ticks.sum();
      }
      ok = ok && same && run.failed == 0;
      table.add_row(
          {bench::fmt_u64(static_cast<std::uint64_t>(threads)),
           bench::fmt_u64(sessions), bench::fmt_u64(run.completed),
           bench::fmt_u64(run.failed), bench::fmt_u64(run.peak_inflight),
           bench::fmt_u64(run.digest_fold),
           bench::fmt_u64(run.completion_ticks.p99()), same ? "PASS" : "FAIL",
           bench::fmt_double(static_cast<double>(sessions) / (run_ms / 1000.0),
                             0)});
      if (!have_base) {
        base = std::move(run);
        have_base = true;
      }
    }
  }

  rep.note("gates_ok", obs::Json(ok));
  return rep.finish(ok ? 0 : 1);
}

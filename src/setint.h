// setint.h — single-header facade over the library.
//
// For users who want "compute the intersection and tell me what it cost"
// without assembling channels, randomness and parameter structs:
//
//   #include "setint.h"
//   auto result = setint::intersect(S, T, {.universe = 1u << 30});
//   // result.intersection, result.bits, result.rounds, result.verified
//
// The facade always runs the communication-optimal configuration
// (verification tree at r = log* k) followed by a 2k-bit certificate, so
// `verified == true` means the output is S cap T with certainty up to the
// 2^-2k certificate error.
//
// Observability: install an obs::Tracer to get a phase-attributed cost
// breakdown of the run —
//
//   obs::Tracer tracer;
//   auto result = setint::intersect(S, T, {.tracer = &tracer});
//   // result.report.phases: per-phase bits/messages/rounds rows
//   // result.report.ToJson(): machine-readable run record
//
// With no tracer the run pays nothing for the plumbing.
//
// Robustness: install a sim::FaultPlan to run over an adversarial
// transport. The facade retries certificate-failing (or undecodable) runs
// with fresh randomness per options.retry, and after budget exhaustion
// degrades to a flagged superset answer:
//
//   sim::FaultPlan plan(sim::FaultSpec{.flip_per_bit = 1e-3, .seed = 7});
//   auto result = setint::intersect(S, T, {.fault_plan = &plan});
//   // result.verified: exact (certificate passed)
//   // result.degraded: superset-only answer, honestly flagged
//
// Contract (docs/ROBUSTNESS.md): verified implies exact up to the 2^-2k
// certificate error; degraded implies intersection is a superset of
// S cap T; never both.
//
// Byzantine hardening: install a sim::Adversary to model a peer that
// LIES (crafted frames rather than random damage) and/or
// core::ResourceLimits to cap what a single run may consume:
//
//   sim::Adversary adv({.party = sim::PartyId::kBob});
//   auto result = setint::intersect(S, T, {
//       .adversary = &adv,
//       .limits = core::ResourceLimits::for_workload(1u << 20, S.size())});
//   // result.intersection is ALWAYS a subset of S (the honest side's
//   // own input), whatever the peer sends; oversized or decode-bombing
//   // frames are rejected via core::ResourceLimitError and burn retry
//   // attempts until the run degrades honestly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/budget.h"
#include "core/resource_limits.h"
#include "core/retry.h"
#include "obs/recorder.h"
#include "obs/tracer.h"
#include "sim/adversary.h"
#include "sim/chaos.h"
#include "sim/fault.h"
#include "util/set_util.h"

namespace setint {

struct IntersectOptions {
  std::uint64_t universe = 0;  // 0 = infer: max element + 1
  std::uint64_t seed = 0x5e71;
  // Verification-tree stages r: 0 = auto (log* k), 1..64 explicit (r = 1
  // is the one-round hash exchange). Larger r never helps; smaller r
  // trades rounds for bits per Theorem 1.1. Values outside [0, 64] throw
  // std::invalid_argument before any attempt runs.
  int rounds_r = 0;
  // Optional phase/metric sink (not owned). When set, the returned
  // IntersectResult::report carries the full phase breakdown.
  obs::Tracer* tracer = nullptr;
  // Optional flight recorder (not owned, single-session like the tracer):
  // a last-N ring of protocol events that auto-dumps a JSONL post-mortem
  // when an integrity failure, limit breach or degradation fires — see
  // obs/recorder.h and docs/OBSERVABILITY.md § flight recorder.
  obs::FlightRecorder* recorder = nullptr;
  // Optional unreliable-transport model (not owned, stateful): iid damage,
  // Gilbert-Elliott bursts and per-link overlays (sim/fault.h). An
  // overlay off the session's one link {0, 1} throws
  // std::invalid_argument before any attempt runs.
  sim::FaultPlan* fault_plan = nullptr;
  // Optional Byzantine-peer model (not owned, stateful): one party's
  // frames are replaced with crafted ones (sim/adversary.h).
  sim::Adversary* adversary = nullptr;
  // Resource caps enforced on the run's channel and decoders. Default
  // (all zero) is disabled and free; ResourceLimits::for_workload(u, k)
  // derives generous caps an honest run never hits.
  core::ResourceLimits limits;
  // Retry budget + backoff cost + degradation budget (plus the chaos
  // restart/resume-wait budgets).
  core::RetryPolicy retry;
  // Optional crash/partition schedule (not owned, stateful): player
  // crash-restart and link partition windows (sim/chaos.h); damage in
  // flight is the fault plan's. Crashed sessions wait out the outage and
  // resume from their last phase checkpoint; a peer that never returns
  // degrades the run honestly (docs/ROBUSTNESS.md § crash faults).
  sim::ChaosPlan* chaos_plan = nullptr;
  // Phase-boundary checkpointing (core/checkpoint.h) for chaos recovery.
  // Off = a crash burns the whole attempt and replays it from scratch.
  // Only crash recovery depends on it: budgets are enforced at the same
  // boundaries either way.
  bool checkpoint = true;
  // Overload governance (core/budget.h): per-session caps on bits, rounds
  // and a simulated deadline, enforced cooperatively after every
  // verification-tree stage boundary and between attempts, whether or
  // not `checkpoint` is set. A session therefore overshoots a cap by at
  // most one stage (or one certificate, backstop or ladder rung).
  // Exhaustion descends the degradation ladder (exact -> flagged superset
  // -> input fallback) — or, with budget.refuse_on_exhaustion, stops at
  // an explicit refusal (IntersectResult::refused, empty answer). Default
  // (all zero) is disabled, free, and leaves transcripts bit-identical.
  core::SessionBudgetSpec budget;
};

struct IntersectResult {
  util::Set intersection;
  std::uint64_t bits = 0;      // total communication
  std::uint64_t rounds = 0;    // message alternations
  bool verified = false;       // certificate passed (exact up to 2^-2k)
  // True when the retry budget died under an active fault plan and the
  // result is a best-effort SUPERSET of S cap T (Lemma 3.3 / the input
  // fallback) rather than the exact intersection.
  bool degraded = false;
  std::uint64_t repetitions = 1;  // certified attempts consumed
  // Chaos recovery accounting (zero without an installed chaos plan):
  // crash/partition outages waited out, and bits re-sent past the last
  // phase checkpoint while doing so.
  std::uint64_t restarts = 0;
  std::uint64_t bits_replayed = 0;
  // Overload governance: the degradation-ladder rung the run ended on
  // (exact / flagged_superset / input_fallback / refused), whether the
  // run was an explicit ResourceExhausted refusal (empty intersection,
  // neither verified nor degraded), and — when a session budget tripped —
  // which dimension (bits / rounds / deadline / pool).
  core::DegradeRung rung = core::DegradeRung::kExact;
  bool refused = false;
  core::BudgetDimension budget_reason = core::BudgetDimension::kNone;
  // Cost + phase breakdown + metrics. Phases/metrics are populated only
  // when options.tracer was set; cost is always filled.
  obs::RunReport report;
};

// Two-party exact intersection at O(k) communication. Inputs must be
// strictly increasing; throws std::invalid_argument otherwise.
IntersectResult intersect(util::SetView s, util::SetView t,
                          const IntersectOptions& options = {});

// ---------------------------------------------------------------------
// Batch execution (runtime/batch.h): many independent sessions, one call.
//
//   std::vector<setint::Instance> batch = ...;
//   auto out = setint::run_batch({.universe = 1u << 30}, batch,
//                                {.threads = 8});
//   // out.results[i] corresponds to batch[i], in order.
//
// Determinism contract: for fixed options and instances, every field of
// BatchResult — results, per-session reports, merged metrics JSON — is
// byte-for-byte independent of `threads`. Session i runs with seed
// derived purely from (options.seed, i), its own channel and its own
// tracer; per-session outputs are merged in session order after the
// barrier. Pinned by tests/batch_test.cc and the exp_batch bench.

// One session's inputs (views — the caller keeps the sets alive for the
// duration of the call).
struct Instance {
  util::SetView s;
  util::SetView t;
};

struct BatchOptions {
  // Worker threads: 1 = serial reference execution, 0 = one per hardware
  // thread, N = exactly N.
  int threads = 1;
  // Install a per-session tracer and fill results[i].report (phase
  // breakdown + metrics) plus BatchResult::metrics. Costs tracer
  // plumbing per session; off by default like the single-run facade.
  bool trace = false;
};

struct BatchResult {
  std::vector<IntersectResult> results;  // session order == instance order
  // All sessions' metric registries merged in session order (empty unless
  // BatchOptions::trace). Exact fold: equal to one registry fed every
  // session's metric stream.
  obs::MetricsRegistry metrics;
  int threads_used = 1;
};

// Runs intersect() on every instance. The per-run stateful hooks of
// IntersectOptions (tracer, recorder, fault_plan, adversary, chaos_plan)
// are single-session
// objects and must be null — sharing one across concurrent sessions
// would break both thread safety and determinism, so run_batch throws
// std::invalid_argument instead (see docs/OBSERVABILITY.md § thread
// affinity). Use BatchOptions::trace for per-session tracing.
BatchResult run_batch(const IntersectOptions& options,
                      std::span<const Instance> instances,
                      const BatchOptions& batch = {});

// The seed session i of run_batch derives from `master_seed` — exposed
// so a caller can reproduce any single batch session with
// setint::intersect.
std::uint64_t batch_session_seed(std::uint64_t master_seed,
                                 std::uint64_t session_index);

}  // namespace setint

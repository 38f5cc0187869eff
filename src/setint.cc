#include "setint.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/verification_tree.h"
#include "multiparty/coordinator.h"
#include "obs/envelope.h"
#include "run_spec.h"
#include "runtime/batch.h"
#include "sim/randomness.h"
#include "util/rng.h"

namespace setint {

namespace {

// Options a caller can get wrong in ways no attempt should absorb.
void validate_options(const IntersectOptions& options) {
  if (options.rounds_r < 0 || options.rounds_r > core::kMaxTreeStages) {
    throw std::invalid_argument("intersect: rounds_r out of range");
  }
  // A two-party session has the one link {0, 1}; an overlay anywhere else
  // would silently never fire.
  if (options.fault_plan != nullptr &&
      options.fault_plan->players_needed() > 2) {
    throw std::invalid_argument(
        "intersect: a fault plan overlay names a link other than {0, 1}");
  }
}

}  // namespace

IntersectResult intersect(util::SetView s, util::SetView t,
                          const IntersectOptions& options) {
  validate_options(options);
  // An inferred universe is max element + 1.
  std::uint64_t universe = options.universe;
  if (universe == 0) {
    std::uint64_t max_element = 0;
    if (!s.empty()) max_element = s.back();
    if (!t.empty()) max_element = std::max(max_element, t.back());
    universe = max_element + 1;
  }
  // Degenerate inputs: with either side empty the intersection is empty
  // by definition and no protocol run is needed — this also covers
  // universe = 0 with both sets empty, which would otherwise bottom out
  // in the log*/floor-log2 parameter derivations. Zero cost, verified
  // (exact with certainty), zero attempts consumed. With an inferred
  // universe the check reduces to canonicality.
  if (s.empty() || t.empty()) {
    util::validate_set(s, universe);
    util::validate_set(t, universe);
    IntersectResult empty;
    empty.verified = true;
    empty.repetitions = 0;
    if (options.tracer != nullptr) {
      empty.report = obs::make_run_report(sim::CostStats{}, *options.tracer);
    }
    return empty;
  }
  core::VerificationTreeParams params;
  params.rounds_r = options.rounds_r;
  const std::size_t k = std::max<std::size_t>({s.size(), t.size(), 2});

  sim::SharedRandomness shared(options.seed);
  if (options.recorder != nullptr) {
    // Any incident dump the session produces is self-describing.
    options.recorder->replace_context(
        to_context(run_spec_of(s, t, universe, options)));
  }
  multiparty::SessionHooks hooks;
  hooks.tracer = options.tracer;
  hooks.faults = options.fault_plan;
  hooks.adversary = options.adversary;
  hooks.limits = options.limits.enabled() ? &options.limits : nullptr;
  hooks.recorder = options.recorder;
  hooks.chaos = options.chaos_plan;
  hooks.checkpoint = options.checkpoint;
  hooks.budget = options.budget;
  const multiparty::VerifiedRunResult run =
      multiparty::verified_two_party_intersection(
          shared, options.seed, universe, s, t, params, k, options.retry,
          hooks);
  IntersectResult result;
  result.intersection = run.intersection;
  result.bits = run.cost.bits_total;
  result.rounds = run.cost.rounds;
  result.repetitions = run.repetitions;
  result.restarts = run.restarts;
  result.bits_replayed = run.bits_replayed;
  // On a reliable channel the run always certifies or falls back to the
  // exact deterministic exchange; under a fault plan it may instead
  // degrade to a flagged superset.
  result.verified = run.verified;
  result.degraded = run.degraded;
  result.rung = run.rung;
  result.refused = run.refused;
  result.budget_reason = run.budget_reason;
  if (options.tracer != nullptr) {
    // HDR distributions of the run's headline costs — deterministic (no
    // clocks), so the batch engine's serial-vs-parallel byte-equality
    // contract extends to them.
    options.tracer->metrics().hdr("run.bits").observe(run.cost.bits_total);
    options.tracer->metrics().hdr("run.rounds").observe(run.cost.rounds);
    result.report = obs::make_run_report(run.cost, *options.tracer);
    // Theory-conformance audit of the clean-protocol path. Degraded,
    // faulted or Byzantine runs are outside the Theorem 3.6 cost model
    // (injected duplicates and crafted frames bill real bits), so they
    // carry no envelope rather than a misleading one.
    if (!run.degraded && !run.refused && options.fault_plan == nullptr &&
        options.adversary == nullptr && options.chaos_plan == nullptr) {
      obs::EnvelopeSample sample;
      sample.k = k;
      sample.r = options.rounds_r;
      sample.bits = run.cost.bits_total;
      sample.rounds = run.cost.rounds;
      sample.repetitions = run.repetitions;
      result.report.envelope =
          obs::audit_single_run("verified_intersection", sample);
    }
  } else {
    result.report.cost = run.cost;
  }
  return result;
}

std::uint64_t batch_session_seed(std::uint64_t master_seed,
                                 std::uint64_t session_index) {
  // Label-decorrelated so a batch session never collides with the plain
  // facade's direct use of the master seed (or with bench::seed_for).
  return util::mix64(master_seed, util::mix64(0xBA7C4u, session_index));
}

BatchResult run_batch(const IntersectOptions& options,
                      std::span<const Instance> instances,
                      const BatchOptions& batch) {
  validate_options(options);
  if (options.tracer != nullptr || options.recorder != nullptr ||
      options.fault_plan != nullptr || options.adversary != nullptr ||
      options.chaos_plan != nullptr) {
    throw std::invalid_argument(
        "run_batch: tracer/recorder/fault_plan/adversary/chaos_plan are "
        "single-session stateful objects and cannot be shared across batch "
        "sessions; use BatchOptions::trace for per-session tracing");
  }

  BatchResult out;
  out.threads_used = runtime::resolve_threads(batch.threads);
  out.results.resize(instances.size());
  // Per-session tracers survive until the post-barrier merge so metrics
  // can be folded in session order.
  std::vector<std::unique_ptr<obs::Tracer>> tracers;
  if (batch.trace) tracers.resize(instances.size());

  runtime::run_sessions(
      instances.size(), batch.threads, [&](std::size_t i) {
        IntersectOptions session = options;
        session.seed = batch_session_seed(options.seed, i);
        if (batch.trace) {
          tracers[i] = std::make_unique<obs::Tracer>();
          session.tracer = tracers[i].get();
        }
        out.results[i] = intersect(instances[i].s, instances[i].t, session);
      });

  // Post-barrier, session-order merge: the fold is exact (counters and
  // histograms are sums), so the merged registry — and its JSON — cannot
  // depend on which thread ran which session.
  if (batch.trace) {
    for (const auto& tracer : tracers) {
      out.metrics.merge(tracer->metrics());
    }
  }
  return out;
}

}  // namespace setint

#include "setint.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/verification_tree.h"
#include "multiparty/coordinator.h"
#include "obs/envelope.h"
#include "runtime/batch.h"
#include "sim/randomness.h"
#include "util/rng.h"

namespace setint {

namespace {

// %.17g round-trips every double exactly through text (shortest would be
// nicer but 17 significant digits is always sufficient).
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string join_set(util::SetView s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(s[i]);
  }
  return out;
}

// Writes everything tools/replay needs to re-execute this session into
// the recorder's context block, so any incident dump the session produces
// is self-describing. Per-link fault overlays (FaultPlan::set_link_faults)
// are not part of FaultSpec and are not serialized; the replay tool covers
// the spec-reachable configuration.
void set_replay_context(obs::FlightRecorder& rec, util::SetView s,
                        util::SetView t, std::uint64_t universe,
                        const IntersectOptions& options) {
  rec.set_context("kind", "two_party");
  rec.set_context("seed", std::to_string(options.seed));
  rec.set_context("universe", std::to_string(universe));
  rec.set_context("rounds_r", std::to_string(options.rounds_r));
  rec.set_context("s", join_set(s));
  rec.set_context("t", join_set(t));
  rec.set_context("checkpoint", options.checkpoint ? "1" : "0");
  rec.set_context("retry.max_attempts",
                  std::to_string(options.retry.max_attempts));
  rec.set_context("retry.backoff_rounds",
                  std::to_string(options.retry.backoff_rounds));
  rec.set_context("retry.backoff_multiplier",
                  fmt_double(options.retry.backoff_multiplier));
  rec.set_context("retry.backoff_cap_rounds",
                  std::to_string(options.retry.backoff_cap_rounds));
  rec.set_context("retry.backoff_jitter",
                  fmt_double(options.retry.backoff_jitter));
  rec.set_context("retry.degraded_attempts",
                  std::to_string(options.retry.degraded_attempts));
  rec.set_context("retry.max_restarts",
                  std::to_string(options.retry.max_restarts));
  rec.set_context("retry.max_resume_wait_rounds",
                  std::to_string(options.retry.max_resume_wait_rounds));
  if (options.budget.enabled()) {
    rec.set_context("budget.max_bits", std::to_string(options.budget.max_bits));
    rec.set_context("budget.max_rounds",
                    std::to_string(options.budget.max_rounds));
    rec.set_context("budget.deadline_ticks",
                    std::to_string(options.budget.deadline_ticks));
    rec.set_context("budget.refuse_on_exhaustion",
                    options.budget.refuse_on_exhaustion ? "1" : "0");
  }
  if (options.limits.enabled()) {
    rec.set_context("limits.max_message_bits",
                    std::to_string(options.limits.max_message_bits));
    rec.set_context("limits.max_total_bits",
                    std::to_string(options.limits.max_total_bits));
    rec.set_context("limits.max_rounds",
                    std::to_string(options.limits.max_rounds));
    rec.set_context("limits.max_decoded_items",
                    std::to_string(options.limits.max_decoded_items));
  }
  if (options.fault_plan != nullptr) {
    const sim::FaultSpec& f = options.fault_plan->spec();
    rec.set_context("fault.flip_per_bit", fmt_double(f.flip_per_bit));
    rec.set_context("fault.truncate_prob", fmt_double(f.truncate_prob));
    rec.set_context("fault.drop_prob", fmt_double(f.drop_prob));
    rec.set_context("fault.duplicate_prob", fmt_double(f.duplicate_prob));
    rec.set_context("fault.delay_prob", fmt_double(f.delay_prob));
    rec.set_context("fault.delay_rounds", std::to_string(f.delay_rounds));
    const sim::GilbertElliott& g = f.burst;
    rec.set_context("fault.burst",
                    fmt_double(g.p_good_to_bad) + ',' +
                        fmt_double(g.p_bad_to_good) + ',' +
                        fmt_double(g.loss_good) + ',' + fmt_double(g.loss_bad) +
                        ',' + fmt_double(g.flip_good) + ',' +
                        fmt_double(g.flip_bad));
    rec.set_context("fault.seed", std::to_string(f.seed));
  }
  if (options.chaos_plan != nullptr) {
    const sim::ChaosSpec& c = options.chaos_plan->spec();
    rec.set_context("chaos.players", std::to_string(c.players));
    rec.set_context("chaos.seed", std::to_string(c.seed));
    rec.set_context("chaos.protocol_seed",
                    std::to_string(options.chaos_plan->protocol_seed()));
    rec.set_context("chaos.crash_prob", fmt_double(c.crash.crash_prob));
    rec.set_context("chaos.restart_ticks",
                    std::to_string(c.crash.restart_ticks));
    rec.set_context("chaos.max_crashes", std::to_string(c.crash.max_crashes));
    std::string overrides;
    for (const auto& [player, sched] : c.crash_overrides) {
      if (!overrides.empty()) overrides += ';';
      overrides += std::to_string(player) + ':' +
                   fmt_double(sched.crash_prob) + ':' +
                   std::to_string(sched.restart_ticks) + ':' +
                   std::to_string(sched.max_crashes);
    }
    if (!overrides.empty()) rec.set_context("chaos.overrides", overrides);
    std::string partitions;
    for (const sim::PartitionWindow& w : c.partitions) {
      if (!partitions.empty()) partitions += ';';
      partitions += std::to_string(w.a) + ':' + std::to_string(w.b) + ':' +
                    std::to_string(w.start_tick) + ':' +
                    std::to_string(w.end_tick);
    }
    if (!partitions.empty()) rec.set_context("chaos.partitions", partitions);
  }
  // An adversary's crafted frames depend on live protocol state, so a
  // session with one is recorded but declared non-replayable.
  if (options.adversary != nullptr) rec.set_context("adversary", "1");
}

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
    set_replay_context(*options.recorder, s, t, universe, options);
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

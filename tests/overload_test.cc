// Overload governance (core/budget.h, core/breaker.h): unit tests for
// the budget / backoff / pool / admission / breaker primitives, plus
// end-to-end degradation-ladder behavior through the facade and both
// multiparty variants.
//
// The load-bearing contracts (docs/ROBUSTNESS.md § overload governance):
//  - a session that never hits a budget runs bit-identically to one with
//    no budget installed (governance is free until it fires);
//  - budget exhaustion descends the ladder — flagged Lemma-3.3 superset,
//    input fallback, or an explicit refusal — never an unflagged wrong
//    answer;
//  - checkpoint-resumed sessions charge replayed bits against the budget
//    exactly once (the channel's monotonic counter IS the meter);
//  - the breaker stops retry spend on persistently dead links, the shared
//    pool bounds retry spend across a whole multiparty run, and admission
//    control sheds deterministically when the pool runs critical.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/breaker.h"
#include "core/budget.h"
#include "multiparty/coordinator.h"
#include "multiparty/tournament.h"
#include "obs/tracer.h"
#include "setint.h"
#include "sim/chaos.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/randomness.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

std::uint64_t counter_value(const obs::Tracer& tracer, std::string_view name) {
  const auto& counters = tracer.metrics().counters();
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second.value();
}

// ---------------------------------------------------------------------
// SessionBudget

TEST(Budget, DisabledSpecNeverTrips) {
  sim::CostStats cost;
  cost.bits_total = ~std::uint64_t{0};
  cost.rounds = ~std::uint64_t{0};
  core::SessionBudget budget({}, &cost);
  EXPECT_NO_THROW(budget.check());
  EXPECT_FALSE(budget.exhausted());
  EXPECT_EQ(budget.reason(), core::BudgetDimension::kNone);
}

TEST(Budget, BitCapTripsStickilyWithDimension) {
  sim::CostStats cost;
  core::SessionBudgetSpec spec;
  spec.max_bits = 100;
  core::SessionBudget budget(spec, &cost);

  cost.bits_total = 100;  // at the cap: still fine (cap is inclusive)
  EXPECT_NO_THROW(budget.check());
  cost.bits_total = 101;
  EXPECT_THROW(budget.check(), core::BudgetExhaustedError);
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.reason(), core::BudgetDimension::kBits);
  EXPECT_EQ(budget.bits_observed(), 101u);

  // Sticky: the budget keeps refusing with the original dimension even if
  // the observed spend later looks legal again.
  cost.bits_total = 0;
  try {
    budget.check();
    FAIL() << "sticky exhaustion must rethrow";
  } catch (const core::BudgetExhaustedError& e) {
    EXPECT_EQ(e.dimension, core::BudgetDimension::kBits);
  }
}

TEST(Budget, RepeatedChecksOfSameSpendChargeNothing) {
  // Exactly-once semantics at the unit level: the budget reads a
  // monotonic external counter, so observing the same spend N times is
  // not N charges.
  sim::CostStats cost;
  cost.bits_total = 60;
  core::SessionBudgetSpec spec;
  spec.max_bits = 64;
  core::SessionBudget budget(spec, &cost);
  for (int i = 0; i < 100; ++i) EXPECT_NO_THROW(budget.check());
  EXPECT_EQ(budget.checks(), 100u);
  EXPECT_EQ(budget.bits_observed(), 60u);
}

TEST(Budget, DeadlineFallsBackToRoundClockWithoutChaos) {
  sim::CostStats cost;
  core::SessionBudgetSpec spec;
  spec.deadline_ticks = 5;
  core::SessionBudget budget(spec, &cost, /*clock=*/nullptr);
  cost.rounds = 5;
  EXPECT_NO_THROW(budget.check());
  cost.rounds = 6;
  EXPECT_THROW(budget.check(), core::BudgetExhaustedError);
  EXPECT_EQ(budget.reason(), core::BudgetDimension::kDeadline);
}

TEST(Budget, MarkExhaustedRecordsFirstReasonOnly) {
  sim::CostStats cost;
  core::SessionBudget budget({}, &cost);
  budget.mark_exhausted(core::BudgetDimension::kPool);
  budget.mark_exhausted(core::BudgetDimension::kAttempts);
  EXPECT_EQ(budget.reason(), core::BudgetDimension::kPool);
  EXPECT_THROW(budget.check(), core::BudgetExhaustedError);
}

TEST(Budget, NamesAreStable) {
  EXPECT_STREQ(core::degrade_rung_name(core::DegradeRung::kExact), "exact");
  EXPECT_STREQ(core::degrade_rung_name(core::DegradeRung::kFlaggedSuperset),
               "flagged_superset");
  EXPECT_STREQ(core::degrade_rung_name(core::DegradeRung::kInputFallback),
               "input_fallback");
  EXPECT_STREQ(core::degrade_rung_name(core::DegradeRung::kRefused),
               "refused");
  EXPECT_STREQ(core::budget_dimension_name(core::BudgetDimension::kDeadline),
               "deadline");
}

// ---------------------------------------------------------------------
// Backoff schedule

TEST(Backoff, DefaultKnobsReproduceFlatSchedule) {
  // multiplier 1 + jitter 0 is the PR-2 flat policy bit-for-bit — the
  // property that keeps golden transcripts of retrying sessions stable.
  core::RetryPolicy flat;
  flat.backoff_rounds = 7;
  for (std::uint64_t attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_EQ(core::backoff_rounds_for_attempt(flat, 123, attempt), 7u);
    EXPECT_EQ(core::backoff_rounds_for_attempt(flat, 456, attempt), 7u);
  }
  // Zero base stays free whatever the other knobs say.
  core::RetryPolicy zero;
  zero.backoff_multiplier = 8.0;
  zero.backoff_jitter = 1.0;
  EXPECT_EQ(core::backoff_rounds_for_attempt(zero, 1, 5), 0u);
}

TEST(Backoff, ExponentialGrowthIsCapped) {
  core::RetryPolicy expo;
  expo.backoff_rounds = 4;
  expo.backoff_multiplier = 2.0;
  expo.backoff_cap_rounds = 20;
  EXPECT_EQ(core::backoff_rounds_for_attempt(expo, 9, 1), 4u);
  EXPECT_EQ(core::backoff_rounds_for_attempt(expo, 9, 2), 8u);
  EXPECT_EQ(core::backoff_rounds_for_attempt(expo, 9, 3), 16u);
  EXPECT_EQ(core::backoff_rounds_for_attempt(expo, 9, 4), 20u);  // capped
  EXPECT_EQ(core::backoff_rounds_for_attempt(expo, 9, 50), 20u);
}

TEST(Backoff, JitterIsDeterministicAndBounded) {
  core::RetryPolicy jittered;
  jittered.backoff_rounds = 16;
  jittered.backoff_multiplier = 2.0;
  jittered.backoff_cap_rounds = 1024;
  jittered.backoff_jitter = 0.5;
  bool saw_nonbase = false;
  for (std::uint64_t attempt = 1; attempt <= 8; ++attempt) {
    const std::uint64_t a =
        core::backoff_rounds_for_attempt(jittered, 77, attempt);
    const std::uint64_t b =
        core::backoff_rounds_for_attempt(jittered, 77, attempt);
    EXPECT_EQ(a, b) << "same (seed, attempt) must draw the same jitter";
    core::RetryPolicy plain = jittered;
    plain.backoff_jitter = 0.0;
    const std::uint64_t step =
        core::backoff_rounds_for_attempt(plain, 77, attempt);
    EXPECT_GE(a, step);
    EXPECT_LE(a, step + step / 2 + 1);
    if (a != step) saw_nonbase = true;
  }
  EXPECT_TRUE(saw_nonbase) << "jitter 0.5 never moved any attempt";
}

// ---------------------------------------------------------------------
// RetryBudgetPool + AdmissionController

TEST(Pool, TokensDenialsAndFractions) {
  core::RetryBudgetPool pool(3);
  EXPECT_TRUE(pool.enabled());
  EXPECT_DOUBLE_EQ(pool.remaining_fraction(), 1.0);
  EXPECT_TRUE(pool.try_acquire());
  EXPECT_TRUE(pool.try_acquire());
  EXPECT_TRUE(pool.try_acquire());
  EXPECT_FALSE(pool.try_acquire());
  EXPECT_FALSE(pool.try_acquire());
  EXPECT_EQ(pool.spent(), 3u);
  EXPECT_EQ(pool.remaining(), 0u);
  EXPECT_EQ(pool.denials(), 2u);
  EXPECT_DOUBLE_EQ(pool.remaining_fraction(), 0.0);

  core::RetryBudgetPool unlimited(0);
  EXPECT_FALSE(unlimited.enabled());
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(unlimited.try_acquire());
  EXPECT_EQ(unlimited.denials(), 0u);
  EXPECT_DOUBLE_EQ(unlimited.remaining_fraction(), 1.0);
}

TEST(Admission, HealthyPoolAdmitsEverything) {
  core::RetryBudgetPool pool(10);
  core::AdmissionPolicy policy;
  policy.critical_fraction = 0.5;
  core::AdmissionController ctrl(policy, &pool);
  for (std::uint64_t nonce = 0; nonce < 64; ++nonce) {
    EXPECT_TRUE(ctrl.admit(nonce));
  }
  EXPECT_EQ(ctrl.shed(), 0u);
  EXPECT_DOUBLE_EQ(ctrl.shed_fraction(), 0.0);
}

TEST(Admission, DrainedPoolShedsEverythingDeterministically) {
  core::RetryBudgetPool pool(2);
  core::AdmissionPolicy policy;
  policy.critical_fraction = 1.0;
  core::AdmissionController ctrl(policy, &pool);
  while (pool.try_acquire()) {
  }
  EXPECT_DOUBLE_EQ(ctrl.shed_fraction(), 1.0);
  // shed_fraction 1.0 rejects every priority in [0, 1).
  for (std::uint64_t nonce = 0; nonce < 64; ++nonce) {
    EXPECT_FALSE(ctrl.admit(nonce));
  }
  EXPECT_EQ(ctrl.shed(), 64u);
}

TEST(Admission, DecisionsAreAPureFunctionOfSeedNonceAndLevel) {
  // Two controllers over identically-drained pools make identical
  // decisions — the property the bench determinism contract needs.
  const auto decide = [](std::uint64_t seed) {
    core::RetryBudgetPool pool(4);
    pool.try_acquire();
    pool.try_acquire();
    pool.try_acquire();  // 1/4 remaining, below critical 0.5 -> shed 0.5
    core::AdmissionPolicy policy;
    policy.critical_fraction = 0.5;
    policy.seed = seed;
    core::AdmissionController ctrl(policy, &pool);
    std::uint64_t mask = 0;
    for (std::uint64_t nonce = 0; nonce < 64; ++nonce) {
      if (ctrl.admit(nonce)) mask |= std::uint64_t{1} << nonce;
    }
    return mask;
  };
  EXPECT_EQ(decide(11), decide(11));
  EXPECT_NE(decide(11), decide(12)) << "seed must matter";
  const std::uint64_t mask = decide(11);
  EXPECT_NE(mask, 0u) << "partial pressure must admit some";
  EXPECT_NE(mask, ~std::uint64_t{0}) << "partial pressure must shed some";
}

// ---------------------------------------------------------------------
// CircuitBreaker

TEST(Breaker, ClosedToOpenToHalfOpenToClosed) {
  core::BreakerPolicy policy;
  policy.failure_threshold = 2;
  policy.cooldown = 2;
  policy.close_after = 1;
  core::CircuitBreaker breaker(policy);

  EXPECT_EQ(breaker.state(), core::BreakerState::kClosed);
  EXPECT_TRUE(breaker.allow());
  breaker.on_failure();
  EXPECT_EQ(breaker.state(), core::BreakerState::kClosed);
  breaker.on_failure();  // 2nd consecutive failure trips it
  EXPECT_EQ(breaker.state(), core::BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);

  // Open: one denial of the two-call cooldown, then a half-open probe.
  EXPECT_FALSE(breaker.allow());
  EXPECT_EQ(breaker.denials(), 1u);
  EXPECT_TRUE(breaker.allow());
  EXPECT_EQ(breaker.state(), core::BreakerState::kHalfOpen);
  EXPECT_EQ(breaker.half_opens(), 1u);

  // Successful probe closes it (close_after = 1).
  breaker.on_success();
  EXPECT_EQ(breaker.state(), core::BreakerState::kClosed);
  EXPECT_EQ(breaker.closes(), 1u);

  // A success in closed state resets the failure streak.
  breaker.on_failure();
  breaker.on_success();
  breaker.on_failure();
  EXPECT_EQ(breaker.state(), core::BreakerState::kClosed);
}

TEST(Breaker, FailedProbeReopensForAFreshCooldown) {
  core::BreakerPolicy policy;
  policy.failure_threshold = 1;
  policy.cooldown = 2;
  core::CircuitBreaker breaker(policy);
  breaker.on_failure();
  EXPECT_EQ(breaker.state(), core::BreakerState::kOpen);
  EXPECT_FALSE(breaker.allow());
  EXPECT_TRUE(breaker.allow());  // half-open probe
  breaker.on_failure();          // probe fails
  EXPECT_EQ(breaker.state(), core::BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 2u);
  EXPECT_FALSE(breaker.allow()) << "re-open must start a fresh cooldown";
}

TEST(Breaker, DisabledPolicyIsTransparent) {
  core::CircuitBreaker breaker;  // failure_threshold 0 = disabled
  for (int i = 0; i < 100; ++i) {
    breaker.on_failure();
    EXPECT_TRUE(breaker.allow());
  }
  EXPECT_EQ(breaker.state(), core::BreakerState::kClosed);
  EXPECT_EQ(breaker.opens(), 0u);
}

// ---------------------------------------------------------------------
// End-to-end: the degradation ladder through the facade

TEST(OverloadE2E, UnhitBudgetIsBitIdenticalToNoBudget) {
  // Governance must be free until it fires: a run whose budget is never
  // hit spends exactly the bits of an unbudgeted run and still certifies.
  util::Rng rng(0xB1D);
  const util::SetPair pair = util::random_set_pair(rng, 1u << 20, 64, 24);
  IntersectOptions plain;
  plain.universe = 1u << 20;
  const IntersectResult base = intersect(pair.s, pair.t, plain);
  ASSERT_TRUE(base.verified);

  IntersectOptions budgeted = plain;
  budgeted.budget.max_bits = base.bits * 4;
  budgeted.budget.max_rounds = base.rounds * 4;
  const IntersectResult governed = intersect(pair.s, pair.t, budgeted);
  EXPECT_TRUE(governed.verified);
  EXPECT_EQ(governed.rung, core::DegradeRung::kExact);
  EXPECT_EQ(governed.bits, base.bits);
  EXPECT_EQ(governed.rounds, base.rounds);
  EXPECT_EQ(governed.intersection, base.intersection);
  EXPECT_EQ(governed.budget_reason, core::BudgetDimension::kNone);
}

TEST(OverloadE2E, BitBudgetDescendsToFlaggedSuperset) {
  // A bit budget far below the protocol's cost trips at the first phase
  // boundary. On a clean transport the ladder's middle rung — the
  // Lemma-3.3 superset via Basic-Intersection — succeeds and is honestly
  // flagged. The exact-or-flagged contract must survive.
  util::Rng rng(0xB2D);
  const util::SetPair pair = util::random_set_pair(rng, 1u << 20, 64, 16);
  obs::Tracer tracer;
  IntersectOptions options;
  options.universe = 1u << 20;
  options.tracer = &tracer;
  options.budget.max_bits = 64;
  const IntersectResult result = intersect(pair.s, pair.t, options);
  EXPECT_FALSE(result.verified);
  EXPECT_TRUE(result.degraded);
  EXPECT_FALSE(result.refused);
  EXPECT_EQ(result.rung, core::DegradeRung::kFlaggedSuperset);
  EXPECT_EQ(result.budget_reason, core::BudgetDimension::kBits);
  EXPECT_TRUE(util::is_subset(pair.expected_intersection, result.intersection));
  EXPECT_GE(counter_value(tracer, "budget.exhaustions"), 1u);
  EXPECT_EQ(counter_value(tracer, "budget.exhausted_bits"),
            counter_value(tracer, "budget.exhaustions"));
  EXPECT_EQ(counter_value(tracer, "degraded.runs"), 1u);
}

TEST(OverloadE2E, RefuseOnExhaustionReturnsEmptyRefusal) {
  util::Rng rng(0xB3D);
  const util::SetPair pair = util::random_set_pair(rng, 1u << 20, 64, 16);
  obs::Tracer tracer;
  IntersectOptions options;
  options.universe = 1u << 20;
  options.tracer = &tracer;
  options.budget.max_bits = 64;
  options.budget.refuse_on_exhaustion = true;
  const IntersectResult result = intersect(pair.s, pair.t, options);
  EXPECT_FALSE(result.verified);
  EXPECT_FALSE(result.degraded) << "refusal is not a superset answer";
  EXPECT_TRUE(result.refused);
  EXPECT_EQ(result.rung, core::DegradeRung::kRefused);
  EXPECT_TRUE(result.intersection.empty());
  EXPECT_EQ(counter_value(tracer, "budget.refusals"), 1u);
  EXPECT_EQ(counter_value(tracer, "degraded.runs"), 0u)
      << "a refusal must not also count as a degraded run";
}

TEST(OverloadE2E, BlownDeadlineSkipsToInputFallback) {
  // The deadline rung has no time for the Lemma-3.3 exchange: the run
  // must land on the input fallback (the zero-communication superset).
  util::Rng rng(0xB4D);
  const util::SetPair pair = util::random_set_pair(rng, 1u << 20, 64, 16);
  IntersectOptions options;
  options.universe = 1u << 20;
  options.budget.deadline_ticks = 1;  // round clock without a chaos plan
  const IntersectResult result = intersect(pair.s, pair.t, options);
  EXPECT_FALSE(result.verified);
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.rung, core::DegradeRung::kInputFallback);
  EXPECT_EQ(result.budget_reason, core::BudgetDimension::kDeadline);
  EXPECT_EQ(result.intersection, pair.s);
}

// ---------------------------------------------------------------------
// Satellite: checkpoint-resume x budget — replayed bits charge once.

TEST(OverloadE2E, CrashResumeChargesReplayedBitsExactlyOnce) {
  // A session that crashes mid-phase and resumes from its checkpoint
  // replays bits past the last boundary; those replayed bits flow through
  // the channel's monotonic counter exactly once, so a budget equal to
  // the session's total observed spend must NOT trip — double-charging
  // the replay would push the observed total past the cap.
  util::Rng rng(0xB5D);
  const util::SetPair pair = util::random_set_pair(rng, 1u << 18, 96, 32);
  sim::ChaosSpec spec;
  spec.crash.crash_prob = 0.05;
  spec.crash.restart_ticks = 4;

  const auto run = [&](std::uint64_t seed, std::uint64_t max_bits) {
    sim::ChaosPlan plan(spec, seed);
    IntersectOptions options;
    options.universe = 1u << 18;
    options.seed = seed;
    options.chaos_plan = &plan;
    options.budget.max_bits = max_bits;
    return intersect(pair.s, pair.t, options);
  };

  // Deterministic seed scan for a run that certified AND replayed bits
  // past a checkpoint while recovering from a crash — the interesting
  // double-charging candidate.
  std::uint64_t seed = 0;
  IntersectResult unbudgeted;
  bool found = false;
  for (std::uint64_t candidate = 1; candidate <= 64 && !found; ++candidate) {
    unbudgeted = run(candidate, 0);
    if (unbudgeted.verified && unbudgeted.restarts > 0 &&
        unbudgeted.bits_replayed > 0) {
      seed = candidate;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no seed in 1..64 produced a certified crash-resume "
                        "run with replayed bits";

  // Budget == exact observed spend: identical run, still verified. If the
  // budget double-charged the replayed bits it would observe
  // bits + bits_replayed > max_bits and trip.
  const IntersectResult exact_fit = run(seed, unbudgeted.bits);
  EXPECT_TRUE(exact_fit.verified);
  EXPECT_FALSE(exact_fit.degraded);
  EXPECT_EQ(exact_fit.bits, unbudgeted.bits);
  EXPECT_EQ(exact_fit.bits_replayed, unbudgeted.bits_replayed);
  EXPECT_EQ(exact_fit.intersection, unbudgeted.intersection);
  EXPECT_EQ(exact_fit.budget_reason, core::BudgetDimension::kNone);

  // Vacuity guard: a budget far below the protocol's cost must trip on
  // the same configuration (the budget IS being consulted).
  const IntersectResult too_tight = run(seed, 64);
  EXPECT_FALSE(too_tight.verified);
  EXPECT_EQ(too_tight.budget_reason, core::BudgetDimension::kBits);
}

// ---------------------------------------------------------------------
// Multiparty: pool, breaker, admission, refusal accounting

// A 4-player star (coordinator variant): one level, coordinator 0 runs
// pairwise sessions against 1, 2 and 3. The fault plan's per-link
// overlay makes link (0, 3) permanently dead (drops every frame) while
// (0, 1) and (0, 2) stay clean.
struct StarFixture {
  std::uint64_t universe = 1u << 16;
  util::MultiSetInstance inst;

  StarFixture() {
    util::Rng rng(0xA11);
    inst = util::random_multi_sets(rng, universe, /*players=*/4, /*k=*/24,
                                   /*shared=*/8);
  }

  multiparty::MultipartyResult run(const multiparty::MultipartyParams& params,
                                   sim::FaultPlan* faults,
                                   obs::Tracer* tracer = nullptr) const {
    sim::Network network(4);
    if (tracer != nullptr) network.set_tracer(tracer);
    sim::SharedRandomness shared(0x5747);
    multiparty::MultipartyParams p = params;
    p.fault_plan = faults;
    return multiparty::coordinator_intersection(network, shared, universe,
                                                inst.sets, p);
  }

  static sim::FaultPlan dead_link_plan() {
    sim::FaultPlan plan;
    sim::FaultSpec drop_all;
    drop_all.drop_prob = 1.0;
    drop_all.seed = 99;
    plan.set_link_faults(0, 3, drop_all);
    return plan;
  }
};

TEST(OverloadMP, BreakerStopsRetrySpendOnDeadLink) {
  StarFixture fx;
  multiparty::MultipartyParams flat;
  flat.retry.max_attempts = 8;
  flat.retry.degraded_attempts = 1;

  sim::FaultPlan plan_a = StarFixture::dead_link_plan();
  const multiparty::MultipartyResult without = fx.run(flat, &plan_a);

  multiparty::MultipartyParams governed = flat;
  governed.breaker.failure_threshold = 2;
  sim::FaultPlan plan_b = StarFixture::dead_link_plan();
  const multiparty::MultipartyResult with = fx.run(governed, &plan_b);

  // Both answers honor the superset contract and flag the dead pair.
  EXPECT_TRUE(
      util::is_subset(fx.inst.expected_intersection, without.intersection));
  EXPECT_TRUE(
      util::is_subset(fx.inst.expected_intersection, with.intersection));
  EXPECT_TRUE(without.degraded);
  EXPECT_TRUE(with.degraded);
  // The flat policy burns all 8 attempts on the dead link; the breaker
  // trips after 2 consecutive failures and stops the spend.
  EXPECT_LT(with.total_repetitions, without.total_repetitions);
  EXPECT_GE(with.breaker_opens, 1u);
  // Honest per-player accounting: both endpoints of the dead pair are
  // charged, healthy players are not.
  ASSERT_EQ(with.per_player_degraded.size(), 4u);
  EXPECT_GE(with.per_player_degraded[0], 1u);
  EXPECT_GE(with.per_player_degraded[3], 1u);
  EXPECT_EQ(with.per_player_degraded[1], 0u);
  EXPECT_EQ(with.per_player_degraded[2], 0u);
}

TEST(OverloadMP, SharedPoolBoundsRetriesAcrossTheRun) {
  StarFixture fx;
  multiparty::MultipartyParams params;
  params.retry.max_attempts = 16;
  params.retry.degraded_attempts = 1;
  params.retry_pool_attempts = 5;

  sim::FaultPlan plan = StarFixture::dead_link_plan();
  obs::Tracer tracer;
  const multiparty::MultipartyResult result = fx.run(params, &plan, &tracer);

  EXPECT_TRUE(
      util::is_subset(fx.inst.expected_intersection, result.intersection));
  // Re-attempts across the WHOLE run are capped by the pool: each of the
  // 3 pairwise sessions gets a free first attempt, all further attempts
  // draw pool tokens — so total repetitions <= sessions + capacity even
  // though the dead link alone would happily burn its 16.
  EXPECT_LE(result.total_repetitions, 3u + 5u);
  EXPECT_GE(result.pool_retry_denials, 1u);
  // The dead link drains the whole pool before giving up.
  EXPECT_EQ(counter_value(tracer, "budget.pool_spent"), 5u);
}

TEST(OverloadMP, DrainedPoolShedsLaterPairsDeterministically) {
  StarFixture fx;
  multiparty::MultipartyParams params;
  params.retry.max_attempts = 16;
  params.retry.degraded_attempts = 1;
  params.retry_pool_attempts = 2;
  params.admission.critical_fraction = 1.0;
  // Make EVERY link lossy so the first pair drains the 2-token pool and
  // later pairs face shed_fraction 1.0.
  sim::FaultSpec drop_all;
  drop_all.drop_prob = 1.0;
  drop_all.seed = 7;
  sim::FaultPlan faults(drop_all);
  params.fault_plan = &faults;

  sim::Network network(4);
  obs::Tracer tracer;
  network.set_tracer(&tracer);
  sim::SharedRandomness shared(0x5747);
  const multiparty::MultipartyResult result =
      multiparty::coordinator_intersection(network, shared, fx.universe,
                                           fx.inst.sets, params);

  EXPECT_TRUE(
      util::is_subset(fx.inst.expected_intersection, result.intersection));
  EXPECT_GE(result.shed_pairs, 1u);
  EXPECT_EQ(counter_value(tracer, "budget.shed"), result.shed_pairs);
  // Determinism: the same run sheds the same pairs.
  sim::Network network2(4);
  sim::FaultPlan faults2(drop_all);
  multiparty::MultipartyParams params2 = params;
  params2.fault_plan = &faults2;
  const multiparty::MultipartyResult again =
      multiparty::coordinator_intersection(network2, shared, fx.universe,
                                           fx.inst.sets, params2);
  EXPECT_EQ(again.shed_pairs, result.shed_pairs);
  EXPECT_EQ(again.intersection, result.intersection);
}

TEST(OverloadMP, RefusedPairsKeepTheSupersetInvariant) {
  // Every pair refuses (tiny bit budget + refuse_on_exhaustion) — the
  // final answer must still be a superset of the m-way intersection, NOT
  // the empty set a naive intersect-the-refusal would produce.
  StarFixture fx;
  multiparty::MultipartyParams params;
  params.budget.max_bits = 64;
  params.budget.refuse_on_exhaustion = true;
  const multiparty::MultipartyResult result = fx.run(params, nullptr);
  EXPECT_GE(result.refused_pairs, 1u);
  EXPECT_TRUE(result.degraded);
  EXPECT_TRUE(
      util::is_subset(fx.inst.expected_intersection, result.intersection));
  EXPECT_FALSE(result.intersection.empty());
}

// Three players, one uncertified match (0, 1) in the first batch and the
// certified root (0, 2) in the second. Link (0, 1) drops every frame, so
// each attempt of the first match fails the same way and ends the same
// number of rounds in; the root sees player 0's unchanged set whatever
// the first match spent.
std::uint64_t dead_match_rounds(std::uint64_t max_attempts,
                                std::uint64_t backoff_rounds) {
  util::Rng rng(0xA12);
  const std::uint64_t universe = 1u << 16;
  const util::MultiSetInstance inst = util::random_multi_sets(
      rng, universe, /*players=*/3, /*k=*/24, /*shared=*/8);
  sim::FaultPlan plan;
  sim::FaultSpec drop_all;
  drop_all.drop_prob = 1.0;
  drop_all.seed = 99;
  plan.set_link_faults(0, 1, drop_all);
  multiparty::MultipartyParams params;
  params.fault_plan = &plan;
  params.retry.max_attempts = max_attempts;
  params.retry.backoff_rounds = backoff_rounds;
  params.retry.degraded_attempts = 1;
  sim::Network network(3);
  sim::SharedRandomness shared(0x5748);
  const multiparty::MultipartyResult result =
      multiparty::tournament_intersection(network, shared, universe,
                                          inst.sets, params);
  EXPECT_TRUE(
      util::is_subset(inst.expected_intersection, result.intersection));
  EXPECT_TRUE(result.degraded);
  return network.rounds();
}

// A retried match is one session: its batch is billed every attempt's
// rounds plus the backoff before each re-attempt, not its longest
// attempt alone.
TEST(OverloadMP, RetriedMatchBillsEveryAttemptsRounds) {
  const std::uint64_t backoff = 5;
  const std::uint64_t one = dead_match_rounds(1, backoff);
  const std::uint64_t two = dead_match_rounds(2, backoff);
  const std::uint64_t three = dead_match_rounds(3, backoff);
  // The second attempt adds its own rounds on top of its backoff...
  EXPECT_GT(two - one, backoff);
  // ...and the third adds as much again.
  EXPECT_EQ(three - two, two - one);
}

// The session budget reaches every match, not only the certified root:
// under a 16-bit cap with refuse_on_exhaustion each admitted match
// refuses, and the carried answer is player 0's own set, flagged.
TEST(OverloadMP, TournamentBudgetRefusesEveryMatch) {
  util::Rng rng(0xA13);
  const std::uint64_t universe = 1u << 16;
  const util::MultiSetInstance inst = util::random_multi_sets(
      rng, universe, /*players=*/6, /*k=*/24, /*shared=*/6);
  multiparty::MultipartyParams params;
  params.budget.max_bits = 16;
  params.budget.refuse_on_exhaustion = true;
  sim::Network network(6);
  obs::Tracer tracer;
  network.set_tracer(&tracer);
  sim::SharedRandomness shared(0x5749);
  const multiparty::MultipartyResult result =
      multiparty::tournament_intersection(network, shared, universe,
                                          inst.sets, params);
  // Six players: three first-round matches, one with a bye, the root.
  const std::uint64_t matches = 5;
  EXPECT_EQ(counter_value(tracer, "mp.pairwise_runs"), matches);
  EXPECT_EQ(result.refused_pairs, matches);
  EXPECT_EQ(counter_value(tracer, "mp.skipped_matches"), matches);
  EXPECT_EQ(result.degraded_pairs, matches);
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.intersection, inst.sets[0]);
  EXPECT_TRUE(
      util::is_subset(inst.expected_intersection, result.intersection));
}

}  // namespace
}  // namespace setint

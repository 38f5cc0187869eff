// Tests for the protocol planner: cost-model accuracy (within 2x of
// measured), budget handling, and end-to-end plan execution.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "core/planner.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

double measured_bits(const core::Plan& plan, std::uint64_t universe,
                     std::size_t k) {
  util::Rng wrng(k + plan.rounds_r);
  const util::SetPair p = util::random_set_pair(wrng, universe, k, k / 2);
  const auto proto = core::instantiate(plan);
  const core::RunResult r = proto->run(7, universe, p.s, p.t);
  return static_cast<double>(r.cost.bits_total);
}

TEST(Planner, EstimatesWithinFactorTwoOfMeasurement) {
  for (std::size_t k : {256u, 4096u, 32768u}) {
    for (std::uint64_t log_n : {24u, 40u}) {
      core::PlannerQuery query;
      query.universe = std::uint64_t{1} << log_n;
      query.k = k;
      for (const core::Plan& plan : core::enumerate_plans(query)) {
        const double measured = measured_bits(plan, query.universe, k);
        EXPECT_LT(plan.estimated_bits, measured * 2.0)
            << plan.description << " k=" << k << " n=2^" << log_n;
        EXPECT_GT(plan.estimated_bits, measured / 2.0)
            << plan.description << " k=" << k << " n=2^" << log_n;
      }
    }
  }
}

TEST(Planner, PicksDeterministicForSmallUniverses) {
  core::PlannerQuery query;
  query.universe = 1u << 16;
  query.k = 4096;  // n/k = 16: shipping the set costs ~6 bits/element
  const core::Plan plan = core::choose_plan(query);
  EXPECT_EQ(plan.kind, core::PlanKind::kDeterministicExchange);
}

TEST(Planner, PicksRandomizedForHugeUniverses) {
  core::PlannerQuery query;
  query.universe = std::uint64_t{1} << 60;
  query.k = 4096;
  const core::Plan plan = core::choose_plan(query);
  EXPECT_NE(plan.kind, core::PlanKind::kDeterministicExchange);
}

TEST(Planner, RespectsRoundBudget) {
  core::PlannerQuery query;
  query.universe = std::uint64_t{1} << 60;
  query.k = 4096;
  query.round_budget = 2;
  const core::Plan plan = core::choose_plan(query);
  EXPECT_LE(plan.estimated_rounds, 2u);
  // With only 2 rounds, the options are deterministic or one-round hash.
  EXPECT_TRUE(plan.kind == core::PlanKind::kDeterministicExchange ||
              plan.kind == core::PlanKind::kOneRoundHash);
}

TEST(Planner, UnlimitedBudgetOffersEverything) {
  core::PlannerQuery query;
  query.universe = 1u << 30;
  query.k = 1024;
  const auto plans = core::enumerate_plans(query);
  EXPECT_GE(plans.size(), 5u);
  // Sorted by estimated bits.
  for (std::size_t i = 1; i < plans.size(); ++i) {
    EXPECT_LE(plans[i - 1].estimated_bits, plans[i].estimated_bits);
  }
}

TEST(Planner, ChosenPlanRunsAndIsExact) {
  for (std::uint64_t log_n : {16u, 30u, 50u}) {
    core::PlannerQuery query;
    query.universe = std::uint64_t{1} << log_n;
    query.k = 512;
    const core::Plan plan = core::choose_plan(query);
    util::Rng wrng(log_n);
    const util::SetPair p =
        util::random_set_pair(wrng, query.universe, query.k, query.k / 2);
    const auto proto = core::instantiate(plan);
    const core::RunResult r = proto->run(3, query.universe, p.s, p.t);
    EXPECT_EQ(r.output.alice, p.expected_intersection) << plan.description;
  }
}

TEST(Planner, RejectsMalformedQueries) {
  EXPECT_THROW(core::choose_plan({}), std::invalid_argument);
  core::PlannerQuery impossible;
  impossible.universe = 1u << 20;
  impossible.k = 64;
  impossible.round_budget = 1;  // nothing finishes in one round
  EXPECT_THROW(core::choose_plan(impossible), std::invalid_argument);
}

TEST(Planner, BitTiesBreakTowardLowerLocalCost) {
  // estimate_local_ns is part of the sort key (after bits): the ordering
  // produced by enumerate_plans must be non-decreasing in bits, and
  // within equal bits non-decreasing in local cost. Every plan carries
  // its kind's closed-form estimate. At k = 8 one-round hashing and the
  // r = 4 tree price the same bits, so the tie branch is exercised.
  std::size_t ties = 0;
  for (const auto& [log_universe, k] :
       {std::pair{30, 1024}, std::pair{18, 8}, std::pair{22, 4}}) {
    core::PlannerQuery query;
    query.universe = std::uint64_t{1} << log_universe;
    query.k = static_cast<std::size_t>(k);
    const auto plans = core::enumerate_plans(query);
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const core::Plan& plan = plans[i];
      EXPECT_GT(plan.estimated_local_ns, 0.0) << plan.description;
      EXPECT_EQ(plan.estimated_local_ns,
                core::estimate_local_ns(plan.kind, query, plan.rounds_r))
          << plan.description;
      if (i == 0) continue;
      const core::Plan& prev = plans[i - 1];
      if (prev.estimated_bits == plan.estimated_bits) {
        ++ties;
        EXPECT_LE(prev.estimated_local_ns, plan.estimated_local_ns)
            << "k=" << k << " " << prev.description << " vs "
            << plan.description;
      } else {
        EXPECT_LT(prev.estimated_bits, plan.estimated_bits) << "k=" << k;
      }
    }
  }
  EXPECT_GT(ties, 0u);
}

}  // namespace
}  // namespace setint

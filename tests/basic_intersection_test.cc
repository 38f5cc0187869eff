// Tests for Basic-Intersection (Lemma 3.3): the three guaranteed
// properties, the Corollary 3.4 invariant, the four-round batching, and
// failure-rate calibration.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/basic_intersection.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

struct Case {
  std::size_t k;
  std::size_t shared_elements;
  std::uint64_t universe;
};

class BasicIntersectionProperty : public ::testing::TestWithParam<Case> {};

TEST_P(BasicIntersectionProperty, LemmaThreeThreeProperties) {
  const Case c = GetParam();
  util::Rng wrng(c.k * 31 + c.shared_elements);
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    const util::SetPair p =
        util::random_set_pair(wrng, c.universe, c.k, c.shared_elements);
    sim::SharedRandomness shared(trial * 7 + 1);
    sim::Channel ch;
    const core::CandidatePair cand = core::basic_intersection(
        ch, shared, trial, c.universe, p.s, p.t, /*target_failure=*/0.01);

    // Property 1: candidates are subsets of the inputs.
    EXPECT_TRUE(util::is_subset(cand.s_candidate, p.s));
    EXPECT_TRUE(util::is_subset(cand.t_candidate, p.t));
    // Property 3 (first half): the true intersection always survives.
    EXPECT_TRUE(util::is_subset(p.expected_intersection, cand.s_candidate));
    EXPECT_TRUE(util::is_subset(p.expected_intersection, cand.t_candidate));
    // Property 2: disjoint inputs give disjoint candidates (prob 1).
    if (p.expected_intersection.empty()) {
      EXPECT_TRUE(util::set_intersection(cand.s_candidate, cand.t_candidate)
                      .empty());
    }
    // Corollary 3.4: equal candidates ARE the intersection.
    if (cand.s_candidate == cand.t_candidate) {
      EXPECT_EQ(cand.s_candidate, p.expected_intersection);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BasicIntersectionProperty,
    ::testing::Values(Case{1, 0, 1u << 16}, Case{1, 1, 1u << 16},
                      Case{4, 2, 1u << 16}, Case{16, 0, 1u << 20},
                      Case{16, 16, 1u << 20}, Case{64, 32, 1u << 20},
                      Case{256, 200, 1u << 28}, Case{512, 1, 1u << 28}));

TEST(BasicIntersection, ExactWithHighProbability) {
  util::Rng wrng(5);
  int exact = 0;
  const int trials = 300;
  for (int trial = 0; trial < trials; ++trial) {
    const util::SetPair p = util::random_set_pair(wrng, 1u << 24, 32, 16);
    sim::SharedRandomness shared(static_cast<std::uint64_t>(trial) + 1000);
    sim::Channel ch;
    const core::CandidatePair cand = core::basic_intersection(
        ch, shared, 0, 1u << 24, p.s, p.t, /*target_failure=*/0.01);
    exact += (cand.s_candidate == p.expected_intersection &&
              cand.t_candidate == p.expected_intersection);
  }
  EXPECT_GE(exact, trials - 10);  // target failure 1%, allow slack
}

TEST(BasicIntersection, LooseFailureTargetActuallyFails) {
  // Drive the hash range down with a large failure target: collisions
  // must appear, demonstrating the parameter really controls the range.
  util::Rng wrng(6);
  int inexact = 0;
  const int trials = 200;
  for (int trial = 0; trial < trials; ++trial) {
    const util::SetPair p = util::random_set_pair(wrng, 1u << 24, 64, 0);
    sim::SharedRandomness shared(static_cast<std::uint64_t>(trial));
    sim::Channel ch;
    const core::CandidatePair cand = core::basic_intersection(
        ch, shared, 0, 1u << 24, p.s, p.t, /*target_failure=*/0.9);
    inexact += !(cand.s_candidate.empty() && cand.t_candidate.empty());
  }
  EXPECT_GT(inexact, 10);
}

TEST(BasicIntersection, ThreeRoundsSingleInstance) {
  sim::SharedRandomness shared(1);
  sim::Channel ch;
  const util::Set s{1, 5, 9};
  const util::Set t{5, 9, 11};
  core::basic_intersection(ch, shared, 0, 1u << 10, s, t, 0.01);
  EXPECT_EQ(ch.cost().rounds, 3u);
  EXPECT_EQ(ch.cost().messages, 4u);
}

TEST(BasicIntersection, BatchStaysThreeRounds) {
  sim::SharedRandomness shared(2);
  util::Rng wrng(9);
  std::vector<util::SetPair> pairs_storage;
  std::vector<std::pair<util::SetView, util::SetView>> pairs;
  for (int i = 0; i < 50; ++i) {
    pairs_storage.push_back(util::random_set_pair(wrng, 1u << 20, 8, 4));
  }
  for (const auto& p : pairs_storage) pairs.emplace_back(p.s, p.t);
  sim::Channel ch;
  const auto cands =
      core::basic_intersection_batch(ch, shared, 0, 1u << 20, pairs, 0.01);
  EXPECT_EQ(ch.cost().rounds, 3u);
  ASSERT_EQ(cands.size(), 50u);
  for (std::size_t i = 0; i < cands.size(); ++i) {
    EXPECT_TRUE(util::is_subset(pairs_storage[i].expected_intersection,
                                cands[i].s_candidate));
  }
}

TEST(BasicIntersection, EmptySidesShortCircuit) {
  sim::SharedRandomness shared(3);
  const util::Set empty{};
  const util::Set nonempty{3, 7};
  {
    sim::Channel ch;
    const auto cand = core::basic_intersection(ch, shared, 0, 100, empty,
                                               nonempty, 0.01);
    EXPECT_TRUE(cand.s_candidate.empty());
    EXPECT_TRUE(cand.t_candidate.empty());
    // Only the size exchange flows: no hash bits for an empty instance.
    EXPECT_LT(ch.cost().bits_total, 10u);
    EXPECT_EQ(ch.cost().rounds, 3u);
  }
  {
    sim::Channel ch;
    const auto cand =
        core::basic_intersection(ch, shared, 0, 100, empty, empty, 0.01);
    EXPECT_TRUE(cand.s_candidate.empty());
    EXPECT_TRUE(cand.t_candidate.empty());
  }
}

TEST(BasicIntersection, IdenticalSetsComeBackWhole) {
  sim::SharedRandomness shared(4);
  sim::Channel ch;
  const util::Set s{2, 4, 8, 16, 32};
  const auto cand = core::basic_intersection(ch, shared, 0, 64, s, s, 0.001);
  EXPECT_EQ(cand.s_candidate, s);
  EXPECT_EQ(cand.t_candidate, s);
}

TEST(BasicIntersection, TighterFailureCostsMoreBits) {
  util::Rng wrng(11);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 24, 64, 32);
  sim::SharedRandomness shared(5);
  sim::Channel loose;
  core::basic_intersection(loose, shared, 0, 1u << 24, p.s, p.t, 0.1);
  sim::Channel tight;
  core::basic_intersection(tight, shared, 0, 1u << 24, p.s, p.t, 1e-9);
  EXPECT_GT(tight.cost().bits_total, loose.cost().bits_total);
}

TEST(BasicIntersection, RejectsBadFailureTargets) {
  sim::SharedRandomness shared(6);
  sim::Channel ch;
  const util::Set s{1};
  EXPECT_THROW(core::basic_intersection(ch, shared, 0, 10, s, s, 0.0),
               std::invalid_argument);
  EXPECT_THROW(core::basic_intersection(ch, shared, 0, 10, s, s, 1.0),
               std::invalid_argument);
}

TEST(BasicIntersection, ValidatesInputs) {
  sim::SharedRandomness shared(7);
  sim::Channel ch;
  const util::Set bad{5, 3};
  const util::Set ok{1};
  EXPECT_THROW(core::basic_intersection(ch, shared, 0, 10, bad, ok, 0.1),
               std::invalid_argument);
  EXPECT_THROW(core::basic_intersection(ch, shared, 0, 2, ok, util::Set{2},
                                        0.1),
               std::invalid_argument);
}

}  // namespace
}  // namespace setint

// Tests for the Theorem 3.1 protocol: bucketed amortized equality.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>

#include "core/bucket_eq.h"
#include "sim/adversary.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

struct Case {
  std::size_t k;
  std::size_t shared;
};

class BucketEq : public ::testing::TestWithParam<Case> {};

TEST_P(BucketEq, ComputesExactIntersection) {
  const Case c = GetParam();
  util::Rng wrng(c.k * 7 + c.shared);
  const util::SetPair p =
      util::random_set_pair(wrng, std::uint64_t{1} << 30, c.k, c.shared);
  sim::SharedRandomness shared(c.k + 99);
  sim::Channel ch;
  const core::IntersectionOutput out = core::bucket_eq_intersection(
      ch, shared, 0, std::uint64_t{1} << 30, p.s, p.t);
  EXPECT_EQ(out.alice, p.expected_intersection);
  EXPECT_EQ(out.bob, p.expected_intersection);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BucketEq,
                         ::testing::Values(Case{1, 0}, Case{1, 1},
                                           Case{16, 8}, Case{64, 0},
                                           Case{64, 64}, Case{256, 128},
                                           Case{1024, 512},
                                           Case{1024, 1023}));

TEST(BucketEqStats, InstanceCountNearSixK) {
  // Theorem 3.1 equation (1): E[|E|] <= 6k. Measure it.
  util::Rng wrng(5);
  double total_instances = 0;
  const int trials = 10;
  const std::size_t k = 1024;
  for (int trial = 0; trial < trials; ++trial) {
    const util::SetPair p =
        util::random_set_pair(wrng, std::uint64_t{1} << 30, k, k / 2);
    sim::SharedRandomness shared(static_cast<std::uint64_t>(trial));
    sim::Channel ch;
    core::BucketEqStats stats;
    core::bucket_eq_intersection(ch, shared, 0, std::uint64_t{1} << 30, p.s,
                                 p.t, 3, &stats);
    total_instances += static_cast<double>(stats.instances);
  }
  const double avg = total_instances / trials;
  EXPECT_LT(avg, 6.0 * static_cast<double>(k));
  EXPECT_GT(avg, 0.5 * static_cast<double>(k));
}

TEST(BucketEq, CommunicationScalesLinearlyInK) {
  util::Rng wrng(6);
  double rate_small = 0;
  double rate_large = 0;
  {
    const util::SetPair p =
        util::random_set_pair(wrng, std::uint64_t{1} << 30, 256, 128);
    sim::SharedRandomness shared(1);
    sim::Channel ch;
    core::bucket_eq_intersection(ch, shared, 0, std::uint64_t{1} << 30, p.s,
                                 p.t);
    rate_small = static_cast<double>(ch.cost().bits_total) / 256;
  }
  {
    const util::SetPair p =
        util::random_set_pair(wrng, std::uint64_t{1} << 30, 4096, 2048);
    sim::SharedRandomness shared(2);
    sim::Channel ch;
    core::bucket_eq_intersection(ch, shared, 0, std::uint64_t{1} << 30, p.s,
                                 p.t);
    rate_large = static_cast<double>(ch.cost().bits_total) / 4096;
  }
  EXPECT_LT(rate_large, rate_small * 2.0);
}

TEST(BucketEq, OutputsAreSubsetsOfInputs) {
  util::Rng wrng(7);
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    const util::SetPair p =
        util::random_set_pair(wrng, std::uint64_t{1} << 24, 128, 32);
    sim::SharedRandomness shared(trial);
    sim::Channel ch;
    const auto out = core::bucket_eq_intersection(
        ch, shared, trial, std::uint64_t{1} << 24, p.s, p.t);
    EXPECT_TRUE(util::is_subset(out.alice, p.s));
    EXPECT_TRUE(util::is_subset(out.bob, p.t));
    EXPECT_TRUE(util::is_subset(p.expected_intersection, out.alice));
  }
}

TEST(BucketEq, EmptyAndDegenerate) {
  sim::SharedRandomness shared(8);
  {
    sim::Channel ch;
    const auto out = core::bucket_eq_intersection(ch, shared, 0, 100,
                                                  util::Set{}, util::Set{});
    EXPECT_TRUE(out.alice.empty());
  }
  {
    sim::Channel ch;
    const auto out = core::bucket_eq_intersection(
        ch, shared, 0, 100, util::Set{5}, util::Set{});
    EXPECT_TRUE(out.alice.empty());
    EXPECT_TRUE(out.bob.empty());
  }
  {
    sim::Channel ch;
    const auto out = core::bucket_eq_intersection(
        ch, shared, 0, 100, util::Set{5, 6}, util::Set{5, 6});
    EXPECT_EQ(out.alice, (util::Set{5, 6}));
  }
}

TEST(BucketEq, RejectsBadStrength) {
  sim::SharedRandomness shared(9);
  sim::Channel ch;
  EXPECT_THROW(core::bucket_eq_intersection(ch, shared, 0, 100, util::Set{1},
                                            util::Set{1}, 2),
               std::invalid_argument);
}

// Each party sees only the peer's size vector, so a Byzantine Bob can
// claim any sizes. Claims past the public bound k must be refused before
// Alice lists an instance per claimed pair; whatever else a crafted frame
// does, Alice either fails loudly or answers a subset of her own input.
TEST(BucketEq, ByzantinePeerSizesAreBounded) {
  util::Rng wrng(11);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 20, 64, 32);
  sim::SharedRandomness shared(11);
  for (const sim::AttackClass attack :
       {sim::AttackClass::kInflatedLength, sim::AttackClass::kUnaryBomb,
        sim::AttackClass::kRandomGarbage, sim::AttackClass::kSemanticLie}) {
    SCOPED_TRACE(sim::attack_class_name(attack));
    sim::AdversarySpec spec;
    spec.attack = attack;
    sim::Adversary adversary(spec);
    sim::Channel ch;
    ch.set_adversary(&adversary);
    try {
      const auto out =
          core::bucket_eq_intersection(ch, shared, 0, 1u << 20, p.s, p.t);
      EXPECT_TRUE(util::is_subset(out.alice, p.s));
    } catch (const std::exception&) {
    }
    EXPECT_GT(adversary.stats().frames_crafted, 0u);
  }
}

TEST(BucketEqWrapper, RunInterface) {
  const core::BucketEqProtocol proto;
  EXPECT_EQ(proto.name(), "bucket-eq[FKNN]");
  util::Rng wrng(10);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 20, 64, 32);
  const core::RunResult r = proto.run(10, 1u << 20, p.s, p.t);
  EXPECT_EQ(r.output.alice, p.expected_intersection);
}

}  // namespace
}  // namespace setint

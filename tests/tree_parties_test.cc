// The main protocol under strictly-separated execution: correctness and
// bit-for-bit transcript equivalence with the driver implementation —
// the strongest evidence Algorithm 1 needs no out-of-band knowledge.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/resource_limits.h"
#include "core/tree_parties.h"
#include "core/verification_tree.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "sim/runtime.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

core::VerificationTreeParams params_for(std::size_t buckets, int r) {
  core::VerificationTreeParams params;
  params.bucket_count = buckets;
  params.rounds_r = r;
  return params;
}

struct TreeFsmCase {
  std::size_t k;
  std::size_t shared;
  int r;
};

class TreeFsm : public ::testing::TestWithParam<TreeFsmCase> {};

TEST_P(TreeFsm, ComputesExactIntersection) {
  const TreeFsmCase c = GetParam();
  util::Rng wrng(c.k * 7 + c.shared + static_cast<std::size_t>(c.r));
  const util::SetPair p =
      util::random_set_pair(wrng, std::uint64_t{1} << 28, c.k, c.shared);
  const auto params = params_for(std::max<std::size_t>(c.k, 2), c.r);
  sim::SharedRandomness shared(c.k + 13);
  sim::Channel ch;
  core::TreeAlice alice(shared, 5, std::uint64_t{1} << 28, p.s, params);
  core::TreeBob bob(shared, 5, std::uint64_t{1} << 28, p.t, params);
  sim::run_two_party(ch, alice, bob);
  EXPECT_EQ(alice.output(), p.expected_intersection);
  EXPECT_EQ(bob.output(), p.expected_intersection);
  EXPECT_LE(ch.cost().rounds, static_cast<std::uint64_t>(6 * c.r));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TreeFsm,
    ::testing::Values(TreeFsmCase{8, 4, 2}, TreeFsmCase{64, 0, 2},
                      TreeFsmCase{64, 64, 3}, TreeFsmCase{256, 128, 3},
                      TreeFsmCase{1024, 512, 4}, TreeFsmCase{4096, 2048, 4},
                      TreeFsmCase{1024, 512, 6}));

TEST(TreeFsm, TranscriptMatchesDriverBitForBit) {
  util::Rng wrng(9);
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    const std::size_t k = 8 + wrng.below(600);
    const std::size_t shared_count = wrng.below(k + 1);
    const int r = 2 + static_cast<int>(wrng.below(4));
    const util::SetPair p =
        util::random_set_pair(wrng, std::uint64_t{1} << 26, k, shared_count);
    // The driver derives buckets from max(|S|, |T|, 2); make it explicit
    // so both executions agree on the public bound.
    const auto params =
        params_for(std::max<std::size_t>({p.s.size(), p.t.size(), 2}), r);
    sim::SharedRandomness shared(trial * 31);

    sim::Channel driver_ch(/*record_transcript=*/true);
    const core::IntersectionOutput driver_out =
        core::verification_tree_intersection(driver_ch, shared, trial,
                                             std::uint64_t{1} << 26, p.s,
                                             p.t, params);

    sim::Channel fsm_ch(/*record_transcript=*/true);
    core::TreeAlice alice(shared, trial, std::uint64_t{1} << 26, p.s, params);
    core::TreeBob bob(shared, trial, std::uint64_t{1} << 26, p.t, params);
    sim::run_two_party(fsm_ch, alice, bob);

    ASSERT_EQ(driver_ch.transcript()->digest(), fsm_ch.transcript()->digest())
        << "trial " << trial << " k=" << k << " r=" << r;
    EXPECT_EQ(driver_ch.cost().bits_total, fsm_ch.cost().bits_total);
    EXPECT_EQ(driver_ch.cost().rounds, fsm_ch.cost().rounds);
    EXPECT_EQ(driver_out.alice, alice.output());
    EXPECT_EQ(driver_out.bob, bob.output());
  }
}

TEST(TreeFsm, RequiresExplicitPublicParameters) {
  sim::SharedRandomness shared(1);
  core::VerificationTreeParams no_buckets;
  no_buckets.rounds_r = 2;
  EXPECT_THROW(core::TreeAlice(shared, 0, 100, util::Set{1}, no_buckets),
               std::invalid_argument);
  core::VerificationTreeParams r1 = params_for(4, 1);
  EXPECT_THROW(core::TreeAlice(shared, 0, 100, util::Set{1}, r1),
               std::invalid_argument);
  core::VerificationTreeParams cutoff = params_for(4, 2);
  cutoff.worst_case_cutoff_factor = 1.0;
  EXPECT_THROW(core::TreeAlice(shared, 0, 100, util::Set{1}, cutoff),
               std::invalid_argument);
}

TEST(TreeFsm, EmptyAndDegenerateInputs) {
  sim::SharedRandomness shared(2);
  const auto params = params_for(4, 2);
  {
    sim::Channel ch;
    core::TreeAlice alice(shared, 0, 100, util::Set{}, params);
    core::TreeBob bob(shared, 0, 100, util::Set{}, params);
    sim::run_two_party(ch, alice, bob);
    EXPECT_TRUE(alice.output().empty());
  }
  {
    sim::Channel ch;
    core::TreeAlice alice(shared, 1, 100, util::Set{1, 2, 3}, params);
    core::TreeBob bob(shared, 1, 100, util::Set{}, params);
    sim::run_two_party(ch, alice, bob);
    EXPECT_TRUE(alice.output().empty());
    EXPECT_TRUE(bob.output().empty());
  }
}

// A Basic-Intersection image frame whose count fits inside the frame but
// exceeds max_decoded_items is refused inside the tree party too.
TEST(TreeFsm, ImageCountOverDecodeLimitThrows) {
  util::Rng wrng(3);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 20, 64, 16);
  core::ResourceLimits limits;
  limits.max_decoded_items = 32;
  sim::SharedRandomness shared(3);
  core::TreeBob bob(shared, 0, 1u << 20, p.t, params_for(4, 2), &limits);
  // Stage 0: all-ones "hashes" (more bits than the stage needs) fail the
  // equality tests, so Bob moves on to Basic-Intersection.
  util::BitBuffer hashes;
  for (int i = 0; i < 64; ++i) hashes.append_bits(~std::uint64_t{0}, 64);
  const auto verdicts = bob.on_message(hashes);
  ASSERT_TRUE(verdicts.has_value());
  bool any_failed = false;
  for (std::size_t v = 0; v < verdicts->bits.size_bits(); ++v) {
    any_failed = any_failed || !verdicts->bits.bit(v);
  }
  ASSERT_TRUE(any_failed);
  // Alice claims one element in every failed leaf (surplus codes unread).
  util::BitBuffer sizes;
  for (int i = 0; i < 4; ++i) sizes.append_gamma64(1);
  ASSERT_TRUE(bob.on_message(sizes).has_value());
  // 40 items of 64 bits each, wider than any image width: the frame holds
  // every item it claims, so only the item cap can refuse it.
  util::BitBuffer images;
  images.append_gamma64(40);
  for (int i = 0; i < 40; ++i) images.append_bits(i, 64);
  EXPECT_THROW(bob.on_message(images), core::ResourceLimitError);
}

}  // namespace
}  // namespace setint

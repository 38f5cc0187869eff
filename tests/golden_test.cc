// Golden-transcript regression pins.
//
// Protocol behaviour is a pure function of (seed, nonce, inputs); these
// tests pin the exact bit counts and transcript digests of reference runs
// so that ANY change to an encoding, a substream label, or a parameter
// schedule is caught deliberately rather than slipping into measurements.
// If you change a protocol on purpose, re-derive the constants (the test
// failure message prints the new values) and update EXPERIMENTS.md.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/bucket_eq.h"
#include "core/one_round_hash.h"
#include "core/verification_tree.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

struct Reference {
  util::SetPair pair;
  sim::SharedRandomness shared{777};
};

Reference make_reference() {
  Reference ref;
  util::Rng wrng(12345);
  ref.pair = util::random_set_pair(wrng, 1u << 24, 512, 256);
  return ref;
}

TEST(Golden, VerificationTreeReferenceRun) {
  Reference ref = make_reference();
  sim::Channel ch(/*record_transcript=*/true);
  const auto out = core::verification_tree_intersection(
      ch, ref.shared, 42, 1u << 24, ref.pair.s, ref.pair.t, {});
  EXPECT_EQ(out.alice, ref.pair.expected_intersection);
  EXPECT_EQ(ch.cost().bits_total, 18161u);
  EXPECT_EQ(ch.cost().rounds, 11u);
  EXPECT_EQ(ch.transcript()->digest(), 0x95fa00d57b0964d6ull);
}

TEST(Golden, OneRoundHashReferenceRun) {
  Reference ref = make_reference();
  sim::Channel ch(/*record_transcript=*/true);
  const auto out = core::one_round_hash(ch, ref.shared, 42, 1u << 24,
                                        ref.pair.s, ref.pair.t);
  EXPECT_EQ(out.alice, ref.pair.expected_intersection);
  EXPECT_EQ(ch.cost().bits_total, 27686u);
  EXPECT_EQ(ch.transcript()->digest(), 0x9083d7c54c7c9afeull);
}

TEST(Golden, BucketEqReferenceRun) {
  Reference ref = make_reference();
  sim::Channel ch(/*record_transcript=*/true);
  const auto out = core::bucket_eq_intersection(ch, ref.shared, 42, 1u << 24,
                                                ref.pair.s, ref.pair.t);
  EXPECT_EQ(out.alice, ref.pair.expected_intersection);
  EXPECT_EQ(ch.cost().bits_total, 9023u);
  EXPECT_EQ(ch.transcript()->digest(), 0xe1cdad82c6c8c0b0ull);
}

TEST(Golden, WorkloadGeneratorIsStable) {
  // The reference instance itself is part of the pinned surface.
  Reference ref = make_reference();
  EXPECT_EQ(ref.pair.s.size(), 512u);
  EXPECT_EQ(ref.pair.expected_intersection.size(), 256u);
  EXPECT_EQ(ref.pair.s.front(), 26424u);
  EXPECT_EQ(ref.pair.t.back(), 16773962u);
}

}  // namespace
}  // namespace setint

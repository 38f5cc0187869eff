// Tests for the Fact 3.5 equality protocol: one-sidedness, error rate
// calibration, batching semantics and cost/round accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "eq/equality.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "util/bitio.h"
#include "util/rng.h"

namespace setint {
namespace {

util::BitBuffer message(std::uint64_t v, unsigned w = 32) {
  util::BitBuffer b;
  b.append_bits(v, w);
  return b;
}

// Views of a batch, as batch_equality_test takes them.
std::vector<util::BitSpan> spans(const std::vector<util::BitBuffer>& xs) {
  return {xs.begin(), xs.end()};
}

TEST(Equality, EqualInputsAlwaysAccepted) {
  sim::SharedRandomness shared(5);
  for (std::uint64_t nonce = 0; nonce < 200; ++nonce) {
    sim::Channel ch;
    EXPECT_TRUE(eq::equality_test(ch, shared, nonce, message(nonce),
                                  message(nonce), 1));
  }
}

TEST(Equality, UnequalInputsRejectedWithHighProbabilityAtWideHash) {
  sim::SharedRandomness shared(6);
  int accepted = 0;
  for (std::uint64_t nonce = 0; nonce < 500; ++nonce) {
    sim::Channel ch;
    accepted += eq::equality_test(ch, shared, nonce, message(nonce),
                                  message(nonce + 1), 40);
  }
  EXPECT_EQ(accepted, 0);  // 500 * 2^-40 false accepts: essentially never
}

TEST(Equality, ErrorRateTracksTwoToMinusB) {
  // With b = 3 bits, unequal inputs should be falsely accepted at ~1/8.
  sim::SharedRandomness shared(7);
  int accepted = 0;
  const int trials = 8000;
  for (int i = 0; i < trials; ++i) {
    sim::Channel ch;
    accepted += eq::equality_test(ch, shared, static_cast<std::uint64_t>(i),
                                  message(static_cast<std::uint64_t>(i)),
                                  message(static_cast<std::uint64_t>(i) + 9),
                                  3);
  }
  EXPECT_NEAR(accepted, trials / 8, trials / 40);
}

TEST(Equality, CostIsBitsPlusVerdictInTwoRounds) {
  sim::SharedRandomness shared(8);
  sim::Channel ch;
  eq::equality_test(ch, shared, 0, message(1), message(2), 17);
  EXPECT_EQ(ch.cost().bits_total, 17u + 1u);
  EXPECT_EQ(ch.cost().rounds, 2u);
  EXPECT_EQ(ch.cost().messages, 2u);
}

TEST(Equality, DifferentLengthMessagesAreUnequal) {
  sim::SharedRandomness shared(9);
  int accepted = 0;
  for (std::uint64_t nonce = 0; nonce < 200; ++nonce) {
    sim::Channel ch;
    util::BitBuffer longer = message(7, 32);
    longer.append_bit(false);
    accepted +=
        eq::equality_test(ch, shared, nonce, message(7, 32), longer, 20);
  }
  EXPECT_EQ(accepted, 0);
}

TEST(Equality, EmptyMessagesAreEqual) {
  sim::SharedRandomness shared(10);
  sim::Channel ch;
  EXPECT_TRUE(
      eq::equality_test(ch, shared, 0, util::BitBuffer{}, util::BitBuffer{}, 4));
}

TEST(BatchEquality, MixedVerdictsAreCorrect) {
  sim::SharedRandomness shared(11);
  sim::Channel ch;
  std::vector<util::BitBuffer> xa;
  std::vector<util::BitBuffer> xb;
  for (std::uint64_t i = 0; i < 64; ++i) {
    xa.push_back(message(i));
    xb.push_back(message(i % 2 == 0 ? i : i + 1000));  // evens equal
  }
  const std::vector<bool> verdicts =
      eq::batch_equality_test(ch, shared, 0, spans(xa), spans(xb), 30);
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(verdicts[i], i % 2 == 0) << i;
  }
}

TEST(BatchEquality, StaysTwoRoundsRegardlessOfBatchSize) {
  sim::SharedRandomness shared(12);
  for (std::size_t n : {1u, 10u, 500u}) {
    sim::Channel ch;
    std::vector<util::BitBuffer> xa(n, message(1));
    std::vector<util::BitBuffer> xb(n, message(1));
    eq::batch_equality_test(ch, shared, 0, spans(xa), spans(xb), 5);
    EXPECT_EQ(ch.cost().rounds, 2u) << n;
    EXPECT_EQ(ch.cost().bits_total, n * 6) << n;  // 5 hash + 1 verdict each
  }
}

TEST(BatchEquality, EmptyBatchCostsNothing) {
  sim::SharedRandomness shared(13);
  sim::Channel ch;
  const auto verdicts = eq::batch_equality_test(ch, shared, 0, {}, {}, 5);
  EXPECT_TRUE(verdicts.empty());
  EXPECT_EQ(ch.cost().bits_total, 0u);
  EXPECT_EQ(ch.cost().messages, 0u);
}

TEST(BatchEquality, RejectsMismatchedSizesAndZeroBits) {
  sim::SharedRandomness shared(14);
  sim::Channel ch;
  std::vector<util::BitBuffer> one(1, message(1));
  std::vector<util::BitBuffer> two(2, message(1));
  EXPECT_THROW(
      eq::batch_equality_test(ch, shared, 0, spans(one), spans(two), 5),
      std::invalid_argument);
  EXPECT_THROW(
      eq::batch_equality_test(ch, shared, 0, spans(one), spans(one), 0),
      std::invalid_argument);
}

TEST(BatchEquality, FreshNoncesGiveFreshRandomness) {
  // The same unequal pair tested with many nonces must not be judged
  // identically every time when the hash is 1 bit wide.
  sim::SharedRandomness shared(15);
  int accepts = 0;
  for (std::uint64_t nonce = 0; nonce < 400; ++nonce) {
    sim::Channel ch;
    accepts += eq::equality_test(ch, shared, nonce, message(3), message(4), 1);
  }
  EXPECT_GT(accepts, 100);  // about half accept
  EXPECT_LT(accepts, 300);
}

TEST(BatchEquality, WideHashesSpanMultipleWords) {
  sim::SharedRandomness shared(16);
  sim::Channel ch;
  std::vector<util::BitBuffer> xa{message(1), message(2)};
  std::vector<util::BitBuffer> xb{message(1), message(3)};
  const auto verdicts =
      eq::batch_equality_test(ch, shared, 0, spans(xa), spans(xb), 200);
  EXPECT_TRUE(verdicts[0]);
  EXPECT_FALSE(verdicts[1]);
  EXPECT_EQ(ch.cost().bits_total, 2u * 200u + 2u);
}

TEST(BitsForFailure, Calibration) {
  EXPECT_EQ(eq::bits_for_failure(0.5), 1u);
  EXPECT_EQ(eq::bits_for_failure(0.25), 2u);
  EXPECT_EQ(eq::bits_for_failure(1.0 / 1024), 10u);
  EXPECT_EQ(eq::bits_for_failure(0.3), 2u);
  EXPECT_EQ(eq::bits_for_failure(2.0), 1u);   // nonsense input -> 1 bit
  EXPECT_EQ(eq::bits_for_failure(-1.0), 1u);
}

}  // namespace
}  // namespace setint

// Tests for the setint.h facade plus whole-zoo differential fuzzing:
// hundreds of random instances with mixed shapes run through every
// protocol and checked against local ground truth.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "core/bucket_eq.h"
#include "core/deterministic_exchange.h"
#include "core/one_round_hash.h"
#include "core/private_coin.h"
#include "core/toy_protocol.h"
#include "core/verification_tree.h"
#include "setint.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

// ---------- facade ----------

TEST(Facade, BasicUsage) {
  util::Rng wrng(1);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 24, 500, 123);
  const IntersectResult r = intersect(p.s, p.t, {.universe = 1u << 24});
  EXPECT_EQ(r.intersection, p.expected_intersection);
  EXPECT_TRUE(r.verified);
  EXPECT_GT(r.bits, 0u);
  EXPECT_GT(r.rounds, 0u);
}

TEST(Facade, InfersUniverse) {
  const util::Set s{5, 100, 2000};
  const util::Set t{100, 2000, 3000};
  const IntersectResult r = intersect(s, t);
  EXPECT_EQ(r.intersection, (util::Set{100, 2000}));
}

TEST(Facade, EmptyInputs) {
  const IntersectResult r = intersect(util::Set{}, util::Set{});
  EXPECT_TRUE(r.intersection.empty());
  EXPECT_TRUE(r.verified);
}

// Degenerate-input validation: universe = 0 with both sets empty used to
// bottom out in the log*/floor-log2 parameter derivations; it now returns
// an empty verified answer without running a protocol (zero cost, zero
// attempts).
TEST(Facade, ExplicitZeroUniverseWithEmptySets) {
  IntersectOptions options;
  options.universe = 0;
  const IntersectResult r = intersect(util::Set{}, util::Set{}, options);
  EXPECT_TRUE(r.intersection.empty());
  EXPECT_TRUE(r.verified);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.bits, 0u);
  EXPECT_EQ(r.rounds, 0u);
  EXPECT_EQ(r.repetitions, 0u);
}

TEST(Facade, OneEmptySideShortCircuits) {
  const util::Set s{2, 5, 9};
  for (const bool left_empty : {true, false}) {
    const IntersectResult r =
        left_empty ? intersect(util::Set{}, s) : intersect(s, util::Set{});
    EXPECT_TRUE(r.intersection.empty());
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.bits, 0u);
    EXPECT_EQ(r.repetitions, 0u);
  }
  // The short-circuit still validates the non-empty side.
  EXPECT_THROW(intersect(util::Set{3, 1}, util::Set{}),
               std::invalid_argument);
  IntersectOptions bounded;
  bounded.universe = 4;
  EXPECT_THROW(intersect(util::Set{7}, util::Set{}, bounded),
               std::invalid_argument);
}

TEST(Facade, RoundsParameterControlsTradeoff) {
  util::Rng wrng(2);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 26, 4096, 2048);
  const IntersectResult r1 =
      intersect(p.s, p.t, {.universe = 1u << 26, .rounds_r = 1});
  const IntersectResult r3 =
      intersect(p.s, p.t, {.universe = 1u << 26, .rounds_r = 3});
  EXPECT_EQ(r1.intersection, p.expected_intersection);
  EXPECT_EQ(r3.intersection, p.expected_intersection);
  EXPECT_LT(r3.bits, r1.bits);     // more rounds, fewer bits
  EXPECT_GT(r3.rounds, r1.rounds);
}

TEST(Facade, RejectsNonCanonicalInput) {
  EXPECT_THROW(intersect(util::Set{3, 1}, util::Set{}),
               std::invalid_argument);
}

// A stage count outside [0, 64] is a caller error, refused before any
// attempt: the retry loop must not absorb it and answer through the
// fallback.
TEST(Facade, RejectsOutOfRangeRounds) {
  util::Rng wrng(3);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 20, 64, 32);
  const Instance instances[] = {{p.s, p.t}};
  for (const int r : {-1, 65}) {
    SCOPED_TRACE(testing::Message() << "rounds_r=" << r);
    const IntersectOptions options{.universe = 1u << 20, .rounds_r = r};
    EXPECT_THROW(intersect(p.s, p.t, options), std::invalid_argument);
    EXPECT_THROW(intersect(util::Set{}, util::Set{}, options),
                 std::invalid_argument);
    EXPECT_THROW(run_batch(options, instances), std::invalid_argument);
  }
}

TEST(Facade, DeterministicForSeed) {
  util::Rng wrng(3);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 20, 128, 64);
  const IntersectResult a =
      intersect(p.s, p.t, {.universe = 1u << 20, .seed = 42});
  const IntersectResult b =
      intersect(p.s, p.t, {.universe = 1u << 20, .seed = 42});
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.rounds, b.rounds);
}

// A session budget is checked at every verification-tree stage boundary
// whether or not checkpoints are on. A cap a third of the way into the
// first attempt must trip in both modes, at the same point: the session
// may not finish the attempt and report an unflagged exact answer past
// max_bits.
TEST(Facade, BudgetHoldsWithoutCheckpoint) {
  util::Rng wrng(5);
  const std::uint64_t universe = std::uint64_t{1} << 32;
  const util::SetPair p = util::random_set_pair(wrng, universe, 2048, 1024);
  IntersectOptions options{.universe = universe, .seed = 5};
  options.budget.max_bits = 26404;
  options.checkpoint = true;
  const IntersectResult with_ckpt = intersect(p.s, p.t, options);
  options.checkpoint = false;
  const IntersectResult without_ckpt = intersect(p.s, p.t, options);
  for (const IntersectResult* r : {&with_ckpt, &without_ckpt}) {
    EXPECT_EQ(r->budget_reason, core::BudgetDimension::kBits);
    EXPECT_NE(r->rung, core::DegradeRung::kExact);
    EXPECT_FALSE(r->verified);
    EXPECT_TRUE(util::is_subset(p.expected_intersection, r->intersection));
  }
  EXPECT_EQ(without_ckpt.bits, with_ckpt.bits);
  EXPECT_EQ(without_ckpt.rung, with_ckpt.rung);
}

// ---------- whole-zoo differential fuzz ----------

std::vector<std::unique_ptr<core::IntersectionProtocol>> fuzz_zoo() {
  std::vector<std::unique_ptr<core::IntersectionProtocol>> zoo;
  zoo.push_back(std::make_unique<core::OneRoundHashProtocol>());
  zoo.push_back(std::make_unique<core::ToyBucketProtocol>());
  zoo.push_back(std::make_unique<core::BucketEqProtocol>());
  zoo.push_back(std::make_unique<core::VerificationTreeProtocol>());
  zoo.push_back(std::make_unique<core::PrivateCoinProtocol>());
  return zoo;
}

TEST(DifferentialFuzz, RandomInstancesAcrossTheZoo) {
  // ~150 random instances with wildly mixed shapes. Invariants checked on
  // every protocol: subset-of-input and superset-of-truth ALWAYS; exact
  // output in all but a vanishing fraction of runs (bounded below).
  const auto zoo = fuzz_zoo();
  util::Rng meta(0xF022);
  int runs = 0;
  int inexact = 0;
  for (int instance = 0; instance < 150; ++instance) {
    const std::uint64_t universe =
        16 + (std::uint64_t{1} << meta.below(40));
    const std::size_t max_k = static_cast<std::size_t>(
        std::min<std::uint64_t>(universe / 2, 1 + meta.below(400)));
    const std::size_t k = 1 + meta.below(max_k);
    const std::size_t shared_count = meta.below(k + 1);
    util::Rng wrng(meta.next());
    const util::SetPair p =
        util::random_set_pair(wrng, universe, k, shared_count);
    for (const auto& proto : zoo) {
      const core::RunResult r =
          proto->run(meta.next(), universe, p.s, p.t);
      ++runs;
      ASSERT_TRUE(util::is_subset(r.output.alice, p.s))
          << proto->name() << " instance " << instance;
      ASSERT_TRUE(util::is_subset(r.output.bob, p.t))
          << proto->name() << " instance " << instance;
      ASSERT_TRUE(util::is_subset(p.expected_intersection, r.output.alice))
          << proto->name() << " instance " << instance;
      ASSERT_TRUE(util::is_subset(p.expected_intersection, r.output.bob))
          << proto->name() << " instance " << instance;
      inexact += (r.output.alice != p.expected_intersection ||
                  r.output.bob != p.expected_intersection);
    }
  }
  // 750 runs; randomized protocols at small k may miss occasionally.
  EXPECT_LE(inexact, runs / 100) << inexact << " of " << runs;
}

TEST(DifferentialFuzz, AdversarialShapes) {
  // Hand-picked nasty shapes: dense universe, all-consecutive elements,
  // maximum overlap, singleton overlap at the universe edge.
  const auto zoo = fuzz_zoo();
  struct Shape {
    util::Set s;
    util::Set t;
    std::uint64_t universe;
  };
  std::vector<Shape> shapes;
  {
    util::Set a;
    util::Set b;
    for (std::uint64_t i = 0; i < 64; ++i) {
      a.push_back(i);
      b.push_back(i + 32);
    }
    shapes.push_back({a, b, 128});  // dense consecutive, half overlap
  }
  {
    util::Set a;
    for (std::uint64_t i = 0; i < 100; ++i) a.push_back(i * 2);
    shapes.push_back({a, a, 256});  // identical even numbers
  }
  {
    shapes.push_back({util::Set{0}, util::Set{0}, 1});  // minimal universe
  }
  {
    const std::uint64_t top = (std::uint64_t{1} << 40) - 1;
    shapes.push_back({util::Set{0, top}, util::Set{top}, top + 1});
  }
  for (const Shape& shape : shapes) {
    const util::Set truth = util::set_intersection(shape.s, shape.t);
    for (const auto& proto : fuzz_zoo()) {
      const core::RunResult r =
          proto->run(0xAD, shape.universe, shape.s, shape.t);
      EXPECT_EQ(r.output.alice, truth) << proto->name();
      EXPECT_EQ(r.output.bob, truth) << proto->name();
    }
  }
}

}  // namespace
}  // namespace setint

// Unit + property tests for the utility substrate: bit I/O, gamma codes,
// iterated logarithms, RNG substreams, set operations and workload
// generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "util/arena.h"
#include "util/bitio.h"
#include "util/flat_buckets.h"
#include "util/iterated_log.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

// ---------- BitBuffer / BitReader ----------

TEST(BitBuffer, StartsEmpty) {
  util::BitBuffer b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size_bits(), 0u);
}

TEST(BitBuffer, AppendBitRoundtrip) {
  util::BitBuffer b;
  const std::vector<bool> pattern = {true, false, false, true, true, false};
  for (bool v : pattern) b.append_bit(v);
  ASSERT_EQ(b.size_bits(), pattern.size());
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    EXPECT_EQ(b.bit(i), pattern[i]) << "bit " << i;
  }
}

TEST(BitBuffer, AppendBitsRoundtripAcrossWordBoundaries) {
  util::BitBuffer b;
  b.append_bits(0x1234'5678'9abc'def0ull, 64);
  b.append_bits(0x5, 3);
  b.append_bits(0xffff'ffff'ffff'ffffull, 64);
  util::BitReader r(b);
  EXPECT_EQ(r.read_bits(64), 0x1234'5678'9abc'def0ull);
  EXPECT_EQ(r.read_bits(3), 0x5u);
  EXPECT_EQ(r.read_bits(64), 0xffff'ffff'ffff'ffffull);
  EXPECT_TRUE(r.exhausted());
}

TEST(BitBuffer, AppendBitsRejectsOverwideValue) {
  util::BitBuffer b;
  EXPECT_THROW(b.append_bits(0x10, 4), std::invalid_argument);
  EXPECT_THROW(b.append_bits(0, 65), std::invalid_argument);
}

TEST(BitBuffer, ZeroWidthAppendIsNoop) {
  util::BitBuffer b;
  b.append_bits(0, 0);
  EXPECT_EQ(b.size_bits(), 0u);
}

TEST(BitBuffer, AppendBufferConcatenates) {
  util::BitBuffer a;
  a.append_bits(0b101, 3);
  util::BitBuffer b;
  b.append_bits(0b0110, 4);
  a.append_buffer(b);
  ASSERT_EQ(a.size_bits(), 7u);
  util::BitReader r(a);
  EXPECT_EQ(r.read_bits(3), 0b101u);
  EXPECT_EQ(r.read_bits(4), 0b0110u);
}

TEST(BitBuffer, EqualityAndFingerprint) {
  util::BitBuffer a;
  util::BitBuffer b;
  a.append_bits(0xabcd, 16);
  b.append_bits(0xabcd, 16);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.append_bit(false);
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  a.append_bit(true);
  EXPECT_FALSE(a == b);  // same length, last bit differs
  a.toggle_bit(16);
  EXPECT_TRUE(a == b);
}

TEST(BitBuffer, FingerprintDistinguishesLengthOfZeroRuns) {
  // A buffer of j zero bits must not collide with j+1 zero bits.
  util::BitBuffer a;
  util::BitBuffer b;
  a.append_bits(0, 5);
  b.append_bits(0, 6);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(BitReader, ReadPastEndThrows) {
  util::BitBuffer b;
  b.append_bit(true);
  util::BitReader r(b);
  r.read_bit();
  EXPECT_THROW(r.read_bit(), std::out_of_range);
}

TEST(BitBuffer, ToStringRendersInOrder) {
  util::BitBuffer b;
  b.append_bit(true);
  b.append_bit(false);
  b.append_bit(true);
  EXPECT_EQ(b.to_string(), "101");
}

TEST(EliasGamma, KnownCodewords) {
  // gamma(1) = "1", gamma(2) = "010", gamma(3) = "011".
  util::BitBuffer b;
  b.append_elias_gamma(1);
  EXPECT_EQ(b.to_string(), "1");
  b.clear();
  b.append_elias_gamma(2);
  EXPECT_EQ(b.to_string(), "010");
  b.clear();
  b.append_elias_gamma(3);
  EXPECT_EQ(b.to_string(), "011");
}

TEST(EliasGamma, RejectsZero) {
  util::BitBuffer b;
  EXPECT_THROW(b.append_elias_gamma(0), std::invalid_argument);
}

class GammaRoundtrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GammaRoundtrip, EncodesAndDecodes) {
  util::BitBuffer b;
  b.append_gamma64(GetParam());
  util::BitReader r(b);
  EXPECT_EQ(r.read_gamma64(), GetParam());
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(b.size_bits(), util::gamma64_cost_bits(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Boundaries, GammaRoundtrip,
                         ::testing::Values(0ull, 1ull, 2ull, 3ull, 7ull, 8ull,
                                           63ull, 64ull, 1023ull, 1024ull,
                                           (1ull << 31) - 1, 1ull << 31,
                                           (1ull << 62) - 1,
                                           0xffff'ffff'ffff'fffeull));

TEST(EliasGamma, SequenceRoundtripRandom) {
  util::Rng rng(123);
  std::vector<std::uint64_t> values;
  util::BitBuffer b;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.next() >> rng.below(60);
    values.push_back(v);
    b.append_gamma64(v);
  }
  util::BitReader r(b);
  for (std::uint64_t v : values) EXPECT_EQ(r.read_gamma64(), v);
  EXPECT_TRUE(r.exhausted());
}

TEST(Rice, KnownCodewords) {
  // b = 2: v = 5 -> quotient 1, remainder 01 -> "10" + "01"(LSB-first).
  util::BitBuffer b;
  b.append_rice(0, 0);
  EXPECT_EQ(b.to_string(), "0");  // quotient 0 in unary, no remainder
  b.clear();
  b.append_rice(3, 0);
  EXPECT_EQ(b.to_string(), "1110");
  b.clear();
  b.append_rice(5, 2);
  EXPECT_EQ(b.size_bits(), util::rice_cost_bits(5, 2));
}

class RiceRoundtrip
    : public ::testing::TestWithParam<std::pair<std::uint64_t, unsigned>> {};

TEST_P(RiceRoundtrip, EncodesAndDecodes) {
  const auto [v, b] = GetParam();
  util::BitBuffer buf;
  buf.append_rice(v, b);
  EXPECT_EQ(buf.size_bits(), util::rice_cost_bits(v, b));
  util::BitReader r(buf);
  EXPECT_EQ(r.read_rice(b), v);
  EXPECT_TRUE(r.exhausted());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RiceRoundtrip,
    ::testing::Values(std::pair<std::uint64_t, unsigned>{0, 0},
                      std::pair<std::uint64_t, unsigned>{0, 10},
                      std::pair<std::uint64_t, unsigned>{1, 0},
                      std::pair<std::uint64_t, unsigned>{1023, 10},
                      std::pair<std::uint64_t, unsigned>{1024, 10},
                      std::pair<std::uint64_t, unsigned>{123456, 12},
                      std::pair<std::uint64_t, unsigned>{(1ull << 40) - 1,
                                                         38}));

TEST(Rice, GuardsAgainstMisSizedParameter) {
  util::BitBuffer b;
  EXPECT_THROW(b.append_rice(1ull << 40, 2), std::invalid_argument);
  EXPECT_THROW(b.append_rice(0, 64), std::invalid_argument);
}

TEST(SetRice, RoundtripsAcrossShapes) {
  util::Rng rng(77);
  for (std::uint64_t universe :
       {std::uint64_t{64}, std::uint64_t{1} << 20, std::uint64_t{1} << 40}) {
    for (std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{50},
                             std::size_t{63}}) {
      const util::Set s = util::random_set(rng, universe, size);
      util::BitBuffer b;
      util::append_set_rice(b, s, universe);
      EXPECT_EQ(b.size_bits(), util::set_rice_cost_bits(s, universe));
      util::BitReader r(b);
      EXPECT_EQ(util::read_set_rice(r, universe), s);
    }
  }
}

TEST(SetRice, NearInformationTheoreticOptimum) {
  // For a uniform k-subset of [n], the entropy is ~k log2(n/k) + 1.44 k;
  // Rice coding should land within ~2 bits/element of that.
  util::Rng rng(78);
  const std::uint64_t universe = std::uint64_t{1} << 30;
  const std::size_t k = 1024;
  const util::Set s = util::random_set(rng, universe, k);
  const double per_element =
      static_cast<double>(util::set_rice_cost_bits(s, universe)) /
      static_cast<double>(k);
  const double entropy_rate =
      std::log2(static_cast<double>(universe) / static_cast<double>(k)) +
      1.44;
  EXPECT_LT(per_element, entropy_rate + 2.0);
  EXPECT_GT(per_element, entropy_rate - 1.0);
}

TEST(SetRice, BeatsGammaOnSpreadOutSets) {
  util::Rng rng(79);
  const std::uint64_t universe = std::uint64_t{1} << 36;
  const util::Set s = util::random_set(rng, universe, 512);
  EXPECT_LT(util::set_rice_cost_bits(s, universe),
            util::set_encoding_cost_bits(s) * 2 / 3);
}

TEST(SetRice, WorstCaseClusteredSetStaysBounded) {
  // All elements consecutive at the top of the universe: the first gap is
  // huge but its Rice quotient is bounded by the set size.
  const std::uint64_t universe = std::uint64_t{1} << 40;
  util::Set s;
  for (std::uint64_t i = 0; i < 256; ++i) {
    s.push_back(universe - 256 + i);
  }
  util::BitBuffer b;
  util::append_set_rice(b, s, universe);
  util::BitReader r(b);
  EXPECT_EQ(util::read_set_rice(r, universe), s);
  // ~size * (b + 2) + first-gap quotient (<= size) bits.
  EXPECT_LT(b.size_bits(), 256u * 40u);
}

// ---------- iterated logarithms ----------

TEST(IteratedLog, BaseCases) {
  EXPECT_DOUBLE_EQ(util::iterated_log(0, 1024.0), 1024.0);
  EXPECT_DOUBLE_EQ(util::iterated_log(1, 1024.0), 10.0);
  EXPECT_NEAR(util::iterated_log(2, 1024.0), std::log2(10.0), 1e-12);
}

TEST(IteratedLog, ClampsAtOne) {
  EXPECT_DOUBLE_EQ(util::iterated_log(10, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(util::iterated_log(3, 2.0), 1.0);
}

TEST(IteratedLog, RejectsBadArguments) {
  EXPECT_THROW(util::iterated_log(-1, 4.0), std::invalid_argument);
  EXPECT_THROW(util::iterated_log(1, 0.0), std::invalid_argument);
}

TEST(LogStar, KnownValues) {
  EXPECT_EQ(util::log_star(1.0), 0);
  EXPECT_EQ(util::log_star(2.0), 1);
  EXPECT_EQ(util::log_star(4.0), 2);
  EXPECT_EQ(util::log_star(16.0), 3);
  EXPECT_EQ(util::log_star(65536.0), 4);
}

TEST(LogStar, MatchesIteratedLogDefinition) {
  for (double k : {2.0, 5.0, 100.0, 4096.0, 1e9, 1e18}) {
    const int r = util::log_star(k);
    EXPECT_LE(util::iterated_log(r, k), 1.0 + 1e-12) << k;
    if (r > 0) EXPECT_GT(util::iterated_log(r - 1, k), 1.0) << k;
  }
}

TEST(IteratedLogCeil, ClampsToOne) {
  EXPECT_EQ(util::iterated_log_ceil(5, 16), 1u);
  EXPECT_EQ(util::iterated_log_ceil(0, 16), 16u);
  EXPECT_EQ(util::iterated_log_ceil(1, 1000), 10u);
}

TEST(FloorCeilLog2, Values) {
  EXPECT_EQ(util::floor_log2(1), 0u);
  EXPECT_EQ(util::floor_log2(2), 1u);
  EXPECT_EQ(util::floor_log2(3), 1u);
  EXPECT_EQ(util::floor_log2(1ull << 63), 63u);
  EXPECT_EQ(util::ceil_log2(1), 0u);
  EXPECT_EQ(util::ceil_log2(2), 1u);
  EXPECT_EQ(util::ceil_log2(3), 2u);
  EXPECT_EQ(util::ceil_log2(4), 2u);
  EXPECT_EQ(util::ceil_log2(5), 3u);
  EXPECT_THROW(util::floor_log2(0), std::invalid_argument);
}

// ---------- RNG ----------

TEST(Rng, DeterministicForSeed) {
  util::Rng a(99);
  util::Rng b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  util::Rng a(1);
  util::Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, SubstreamsAreIndependentOfParentState) {
  util::Rng parent(7);
  util::Rng s1 = parent.substream("label", 1);
  parent.next();  // advancing the parent must not change derived streams
  util::Rng s2 = parent.substream("label", 1);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(s1.next(), s2.next());
}

TEST(Rng, SubstreamLabelsSeparate) {
  util::Rng parent(7);
  util::Rng s1 = parent.substream("a", 0);
  util::Rng s2 = parent.substream("b", 0);
  util::Rng s3 = parent.substream("a", 1);
  EXPECT_NE(s1.next(), s2.next());
  util::Rng s1b = parent.substream("a", 0);
  EXPECT_NE(s1b.next(), s3.next());
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  util::Rng rng(3);
  std::vector<int> counts(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    const std::uint64_t v = rng.below(10);
    ASSERT_LT(v, 10u);
    counts[static_cast<std::size_t>(v)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, trials / 10, trials / 100);
  }
}

TEST(Rng, BelowZeroThrows) {
  util::Rng rng(3);
  EXPECT_THROW(rng.below(0), std::invalid_argument);
}

TEST(Rng, UnitInHalfOpenInterval) {
  util::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// ---------- set utilities ----------

TEST(SetUtil, CanonicalDetection) {
  EXPECT_TRUE(util::is_canonical_set(util::Set{}));
  EXPECT_TRUE(util::is_canonical_set(util::Set{1, 2, 5}));
  EXPECT_FALSE(util::is_canonical_set(util::Set{1, 1, 5}));
  EXPECT_FALSE(util::is_canonical_set(util::Set{5, 2}));
}

TEST(SetUtil, ValidateSetEnforcesUniverse) {
  EXPECT_NO_THROW(util::validate_set(util::Set{0, 9}, 10));
  EXPECT_THROW(util::validate_set(util::Set{0, 10}, 10),
               std::invalid_argument);
  EXPECT_THROW(util::validate_set(util::Set{3, 3}, 10), std::invalid_argument);
}

TEST(SetUtil, BasicOperations) {
  const util::Set a{1, 3, 5, 7};
  const util::Set b{3, 4, 5, 8};
  EXPECT_EQ(util::set_intersection(a, b), (util::Set{3, 5}));
  EXPECT_EQ(util::set_union(a, b), (util::Set{1, 3, 4, 5, 7, 8}));
  EXPECT_EQ(util::set_difference(a, b), (util::Set{1, 7}));
  EXPECT_EQ(util::set_symmetric_difference(a, b), (util::Set{1, 4, 7, 8}));
  EXPECT_TRUE(util::set_contains(a, 5));
  EXPECT_FALSE(util::set_contains(a, 4));
  EXPECT_TRUE(util::is_subset(util::Set{3, 5}, a));
  EXPECT_FALSE(util::is_subset(util::Set{3, 6}, a));
}

TEST(SetUtil, EncodingRoundtripsAndCostMatches) {
  util::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const util::Set s = util::random_set(rng, 1u << 20, rng.below(200));
    util::BitBuffer b;
    util::append_set(b, s);
    EXPECT_EQ(b.size_bits(), util::set_encoding_cost_bits(s));
    util::BitReader r(b);
    EXPECT_EQ(util::read_set(r), s);
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(SetUtil, EncodingHandlesAdjacentAndZero) {
  const util::Set s{0, 1, 2, 3};
  util::BitBuffer b;
  util::append_set(b, s);
  util::BitReader r(b);
  EXPECT_EQ(util::read_set(r), s);
}

TEST(SetUtil, RandomSetProperties) {
  util::Rng rng(17);
  const util::Set s = util::random_set(rng, 1000, 100);
  EXPECT_EQ(s.size(), 100u);
  EXPECT_TRUE(util::is_canonical_set(s));
  EXPECT_LT(s.back(), 1000u);
  EXPECT_THROW(util::random_set(rng, 5, 6), std::invalid_argument);
}

TEST(SetUtil, RandomSetFullUniverse) {
  util::Rng rng(17);
  const util::Set s = util::random_set(rng, 16, 16);
  ASSERT_EQ(s.size(), 16u);
  for (std::uint64_t i = 0; i < 16; ++i) EXPECT_EQ(s[i], i);
}

struct PairCase {
  std::size_t k;
  std::size_t shared;
};

class RandomPair : public ::testing::TestWithParam<PairCase> {};

TEST_P(RandomPair, HasExactOverlap) {
  util::Rng rng(23 + GetParam().k);
  const util::SetPair p =
      util::random_set_pair(rng, 1u << 22, GetParam().k, GetParam().shared);
  EXPECT_EQ(p.s.size(), GetParam().k);
  EXPECT_EQ(p.t.size(), GetParam().k);
  EXPECT_TRUE(util::is_canonical_set(p.s));
  EXPECT_TRUE(util::is_canonical_set(p.t));
  EXPECT_EQ(util::set_intersection(p.s, p.t).size(), GetParam().shared);
  EXPECT_EQ(p.expected_intersection, util::set_intersection(p.s, p.t));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomPair,
    ::testing::Values(PairCase{1, 0}, PairCase{1, 1}, PairCase{8, 0},
                      PairCase{8, 8}, PairCase{64, 1}, PairCase{64, 32},
                      PairCase{256, 255}, PairCase{1024, 512}));

TEST(RandomMultiSets, PlantsExactIntersection) {
  util::Rng rng(31);
  for (std::size_t players : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{8}}) {
    const util::MultiSetInstance inst =
        util::random_multi_sets(rng, 1u << 16, players, 64, 16);
    ASSERT_EQ(inst.sets.size(), players);
    util::Set inter = inst.sets[0];
    for (std::size_t p = 1; p < players; ++p) {
      inter = util::set_intersection(inter, inst.sets[p]);
    }
    EXPECT_EQ(inter, inst.expected_intersection);
    if (players > 1) EXPECT_EQ(inst.expected_intersection.size(), 16u);
    for (const util::Set& s : inst.sets) {
      EXPECT_EQ(s.size(), 64u);
      EXPECT_TRUE(util::is_canonical_set(s));
    }
  }
}

// ---------- ScratchArena ----------

TEST(ScratchArena, AllocatesDisjointSpansAndTracksUsage) {
  util::ScratchArena arena;
  util::ScratchArena::Frame frame(arena);
  auto a = arena.alloc_u64(100);
  auto b = arena.alloc_u64(50);
  ASSERT_EQ(a.size(), 100u);
  ASSERT_EQ(b.size(), 50u);
  std::fill(a.begin(), a.end(), 0xAAu);
  std::fill(b.begin(), b.end(), 0xBBu);
  // Writes through one span never land in the other.
  EXPECT_TRUE(std::all_of(a.begin(), a.end(),
                          [](std::uint64_t w) { return w == 0xAAu; }));
  EXPECT_EQ(arena.words_in_use(), 150u);
  EXPECT_GE(arena.high_water_words(), 150u);
  EXPECT_EQ(arena.allocations(), 2u);
}

TEST(ScratchArena, ZeroedAllocationIsZeroEvenWhenRecycled) {
  util::ScratchArena arena;
  {
    util::ScratchArena::Frame frame(arena);
    auto dirty = arena.alloc_u64(256);
    std::fill(dirty.begin(), dirty.end(), ~std::uint64_t{0});
  }
  util::ScratchArena::Frame frame(arena);
  auto z = arena.alloc_u64_zeroed(256);
  EXPECT_TRUE(std::all_of(z.begin(), z.end(),
                          [](std::uint64_t w) { return w == 0; }));
}

TEST(ScratchArena, FrameRewindReusesStorageWithoutGrowingHighWater) {
  util::ScratchArena arena;
  const std::uint64_t* first_round_ptr = nullptr;
  {
    util::ScratchArena::Frame frame(arena);
    first_round_ptr = arena.alloc_u64(512).data();
  }
  EXPECT_EQ(arena.words_in_use(), 0u);
  const std::size_t high_water = arena.high_water_words();
  for (int round = 0; round < 10; ++round) {
    util::ScratchArena::Frame frame(arena);
    auto span = arena.alloc_u64(512);
    // Same block, same offset: round-over-round reuse, no fresh heap.
    EXPECT_EQ(span.data(), first_round_ptr);
  }
  EXPECT_EQ(arena.high_water_words(), high_water);
  EXPECT_EQ(arena.allocations(), 11u);
}

TEST(ScratchArena, NestedFramesRewindToTheirOwnMarks) {
  util::ScratchArena arena;
  util::ScratchArena::Frame outer(arena);
  auto outer_span = arena.alloc_u64(64);
  std::fill(outer_span.begin(), outer_span.end(), 7u);
  {
    util::ScratchArena::Frame inner(arena);
    auto inner_span = arena.alloc_u64(4096);  // forces block growth
    std::fill(inner_span.begin(), inner_span.end(), 9u);
    EXPECT_EQ(arena.words_in_use(), 64u + 4096u);
  }
  // Inner frame rewound its own allocation; the outer span is untouched.
  EXPECT_EQ(arena.words_in_use(), 64u);
  EXPECT_TRUE(std::all_of(outer_span.begin(), outer_span.end(),
                          [](std::uint64_t w) { return w == 7u; }));
}

// ---------- FlatBuckets ----------

// Reference: the vector-of-vector push_back loop the CSR tables replaced.
std::vector<std::vector<std::uint64_t>> reference_buckets(
    std::span<const std::uint64_t> keys, std::span<const std::uint64_t> vals,
    std::size_t num_buckets) {
  std::vector<std::vector<std::uint64_t>> out(num_buckets);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    out[keys[i]].push_back(vals[i]);
  }
  return out;
}

TEST(FlatBuckets, MatchesVectorOfVectorReferenceIncludingOrder) {
  util::Rng rng(0xB0C4);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t k = 1 + rng.below(40);
    const std::size_t n = rng.below(300);
    std::vector<std::uint64_t> keys(n), vals(n), idx(n);
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = rng.below(k);
      vals[i] = rng.next();
      idx[i] = i;
    }
    util::ScratchArena arena;
    util::ScratchArena::Frame frame(arena);
    const auto by_index = util::build_flat_buckets(keys, k, arena);
    const auto by_value = util::build_flat_buckets_values(keys, vals, k, arena);
    const auto ref_idx = reference_buckets(keys, idx, k);
    const auto ref_val = reference_buckets(keys, vals, k);
    ASSERT_EQ(by_index.num_buckets(), k);
    ASSERT_EQ(by_index.size(), n);
    for (std::size_t b = 0; b < k; ++b) {
      const auto bi = by_index.bucket(b);
      const auto bv = by_value.bucket(b);
      // Stability: exact per-bucket order of the push_back loop.
      ASSERT_TRUE(std::equal(bi.begin(), bi.end(), ref_idx[b].begin(),
                             ref_idx[b].end()))
          << "trial " << trial << " bucket " << b;
      ASSERT_TRUE(std::equal(bv.begin(), bv.end(), ref_val[b].begin(),
                             ref_val[b].end()))
          << "trial " << trial << " bucket " << b;
      ASSERT_EQ(by_index.bucket_size(b), ref_idx[b].size());
    }
  }
}

TEST(FlatBuckets, HandlesEmptyInputAndEmptyBuckets) {
  util::ScratchArena arena;
  util::ScratchArena::Frame frame(arena);
  const auto empty = util::build_flat_buckets({}, 8, arena);
  EXPECT_EQ(empty.num_buckets(), 8u);
  EXPECT_EQ(empty.size(), 0u);
  for (std::size_t b = 0; b < 8; ++b) EXPECT_EQ(empty.bucket_size(b), 0u);

  // All keys land in one bucket; the other buckets are empty subspans.
  const std::vector<std::uint64_t> keys(5, 3);
  const auto one = util::build_flat_buckets(keys, 8, arena);
  EXPECT_EQ(one.bucket_size(3), 5u);
  EXPECT_EQ(one.bucket(3)[0], 0u);
  EXPECT_EQ(one.bucket(3)[4], 4u);
  for (std::size_t b = 0; b < 8; ++b) {
    if (b != 3) EXPECT_EQ(one.bucket_size(b), 0u);
  }
}

}  // namespace
}  // namespace setint

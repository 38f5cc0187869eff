// Tests for the hashing substrate: modular arithmetic, Miller-Rabin,
// random primes, the fixed-prime Carter-Wegman pairwise family, FKS
// compression, and Toeplitz GF(2) hashing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "hashing/barrett.h"
#include "hashing/fks.h"
#include "hashing/modmath.h"
#include "hashing/pairwise.h"
#include "hashing/primes.h"
#include "hashing/toeplitz_hash.h"
#include "util/arena.h"
#include "util/bitio.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

// ---------- modular arithmetic ----------

TEST(ModMath, MulmodSmall) {
  EXPECT_EQ(hashing::mulmod(7, 8, 13), 56 % 13);
  EXPECT_EQ(hashing::mulmod(0, 123, 7), 0u);
  EXPECT_EQ(hashing::mulmod(12, 12, 13), 144 % 13);
}

TEST(ModMath, MulmodLargeOperands) {
  const std::uint64_t p = 0xffff'ffff'ffff'ffc5ull;  // largest 64-bit prime
  // (p-1)^2 mod p == 1.
  EXPECT_EQ(hashing::mulmod(p - 1, p - 1, p), 1u);
  EXPECT_EQ(hashing::mulmod(p - 1, 2, p), p - 2);
}

TEST(ModMath, AddmodWrapsWithoutOverflow) {
  const std::uint64_t m = ~std::uint64_t{0} - 1;
  EXPECT_EQ(hashing::addmod(m - 1, m - 1, m), m - 2);
  EXPECT_EQ(hashing::addmod(5, 6, 7), 4u);
}

TEST(ModMath, PowmodMatchesFermat) {
  // a^(p-1) = 1 mod p for prime p, a not divisible by p.
  for (std::uint64_t p : {13ull, 104729ull, 2147483647ull}) {
    for (std::uint64_t a : {2ull, 3ull, 12345ull}) {
      EXPECT_EQ(hashing::powmod(a, p - 1, p), 1u) << a << " " << p;
    }
  }
  EXPECT_EQ(hashing::powmod(2, 10, 1), 0u);
  EXPECT_THROW(hashing::powmod(2, 2, 0), std::invalid_argument);
}

// ---------- primality ----------

TEST(Primes, AgreesWithSieveUpTo100000) {
  const int limit = 100000;
  std::vector<bool> sieve(limit, true);
  sieve[0] = sieve[1] = false;
  for (int i = 2; i * i < limit; ++i) {
    if (sieve[static_cast<std::size_t>(i)]) {
      for (int j = i * i; j < limit; j += i) {
        sieve[static_cast<std::size_t>(j)] = false;
      }
    }
  }
  for (int i = 0; i < limit; ++i) {
    ASSERT_EQ(hashing::is_prime(static_cast<std::uint64_t>(i)),
              sieve[static_cast<std::size_t>(i)])
        << i;
  }
}

TEST(Primes, KnownCarmichaelNumbersAreComposite) {
  for (std::uint64_t c : {561ull, 1105ull, 1729ull, 2465ull, 6601ull,
                          8911ull, 825265ull, 321197185ull}) {
    EXPECT_FALSE(hashing::is_prime(c)) << c;
  }
}

TEST(Primes, KnownLargePrimes) {
  EXPECT_TRUE(hashing::is_prime(2147483647ull));            // 2^31 - 1
  EXPECT_TRUE(hashing::is_prime(2305843009213693951ull));   // 2^61 - 1
  EXPECT_TRUE(hashing::is_prime(0xffff'ffff'ffff'ffc5ull));
  EXPECT_FALSE(hashing::is_prime(2305843009213693951ull * 3));
}

TEST(Primes, NextPrimeAtLeast) {
  EXPECT_EQ(hashing::next_prime_at_least(0), 2u);
  EXPECT_EQ(hashing::next_prime_at_least(2), 2u);
  EXPECT_EQ(hashing::next_prime_at_least(3), 3u);
  EXPECT_EQ(hashing::next_prime_at_least(4), 5u);
  EXPECT_EQ(hashing::next_prime_at_least(90), 97u);
}

TEST(Primes, RandomPrimeInRange) {
  util::Rng rng(77);
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t p = hashing::random_prime_in(rng, 1000, 2000);
    EXPECT_GE(p, 1000u);
    EXPECT_LT(p, 2000u);
    EXPECT_TRUE(hashing::is_prime(p));
  }
  EXPECT_THROW(hashing::random_prime_in(rng, 10, 10), std::invalid_argument);
  EXPECT_THROW(hashing::random_prime_in(rng, 24, 29), std::invalid_argument);
}

// ---------- pairwise hashing ----------

TEST(PairwiseHash, OutputsInRange) {
  util::Rng rng(5);
  const auto h = hashing::PairwiseHash::sample(rng, 1u << 20, 97);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(h(rng.below(1u << 20)), 97u);
  }
}

TEST(PairwiseHash, DeterministicForFixedSeedStream) {
  util::Rng r1(5);
  util::Rng r2(5);
  const auto h1 = hashing::PairwiseHash::sample(r1, 1u << 20, 1024);
  const auto h2 = hashing::PairwiseHash::sample(r2, 1u << 20, 1024);
  for (std::uint64_t x = 0; x < 100; ++x) EXPECT_EQ(h1(x), h2(x));
}

TEST(PairwiseHash, EmpiricalCollisionRateNearPairwiseBound) {
  // For random distinct pairs, collisions should occur at rate about
  // collision_probability() (<= 2/t); allow generous slack.
  util::Rng rng(13);
  const std::uint64_t range = 256;
  int collisions = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    auto h = hashing::PairwiseHash::sample(rng, 1u << 30, range);
    const std::uint64_t x = rng.below(1u << 30);
    std::uint64_t y = rng.below(1u << 30);
    if (y == x) y = (y + 1) % (1u << 30);
    collisions += (h(x) == h(y));
  }
  const double rate = static_cast<double>(collisions) / trials;
  EXPECT_LT(rate, 3.0 / static_cast<double>(range));
}

TEST(PairwiseHash, RoughlyUniformOverRange) {
  util::Rng rng(19);
  const auto h = hashing::PairwiseHash::sample(rng, 1u << 24, 16);
  std::vector<int> counts(16, 0);
  const int trials = 64000;
  for (int i = 0; i < trials; ++i) {
    counts[h(rng.below(1u << 24))]++;
  }
  for (int c : counts) EXPECT_NEAR(c, trials / 16, trials / 80);
}

TEST(PairwiseHash, RejectsBadParameters) {
  util::Rng rng(7);
  EXPECT_THROW(hashing::PairwiseHash::sample(rng, 100, 0),
               std::invalid_argument);
  const std::uint64_t max = hashing::PairwiseHash::kMaxUniverse;
  EXPECT_NO_THROW(hashing::PairwiseHash::sample(rng, max, max));
  EXPECT_THROW(hashing::PairwiseHash::sample(rng, max + 1, 2),
               std::invalid_argument);
  EXPECT_THROW(hashing::PairwiseHash::sample(rng, 2, max + 1),
               std::invalid_argument);
}

TEST(PairwiseHash, FixedPrimeIsTheSmallestPrimeAboveTheUniverse) {
  constexpr std::uint64_t p = hashing::PairwiseHash::kPrime;
  EXPECT_TRUE(hashing::is_prime(p));
  EXPECT_GT(p, hashing::PairwiseHash::kMaxUniverse);
  EXPECT_LT(p, std::uint64_t{1} << 63);  // Montgomery modulus bound
  EXPECT_EQ(hashing::next_prime_at_least(hashing::PairwiseHash::kMaxUniverse),
            p);
}

TEST(PairwiseHash, SamplingSearchesNoPrimes) {
  const hashing::PrimeCacheStats before = hashing::prime_cache_stats();
  util::Rng rng(1000);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t universe = 2 + rng.below(std::uint64_t{1} << 40);
    (void)hashing::PairwiseHash::sample(rng, universe, 1 + i);
  }
  const hashing::PrimeCacheStats after = hashing::prime_cache_stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.entries, before.entries);
}

// ---------- FKS compression ----------

TEST(Fks, InjectiveOnSmallSetsWithHighProbability) {
  util::Rng rng(3);
  int failures = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    const util::Set s = util::random_set(rng, std::uint64_t{1} << 40, 64);
    const auto fks =
        hashing::FksCompressor::sample(rng, std::uint64_t{1} << 40, 64);
    failures += !fks.injective_on(s);
  }
  // Strength 3 with 64 elements: failure well below 1/64 per trial.
  EXPECT_LE(failures, 3);
}

TEST(Fks, RangeIsPolynomiallySmall) {
  util::Rng rng(3);
  const std::uint64_t universe = std::uint64_t{1} << 40;
  const auto fks = hashing::FksCompressor::sample(rng, universe, 64);
  // q ~ O(k^3 log^2 n) << n.
  EXPECT_LT(fks.range(), universe >> 8);
  EXPECT_GT(fks.range(), std::uint64_t{64} * 64 * 64);
}

TEST(Fks, DetectsCollisions) {
  util::Rng rng(9);
  const auto fks = hashing::FksCompressor::sample(rng, 1u << 20, 4);
  const std::uint64_t q = fks.range();
  const util::Set colliding{5, 5 + q};
  EXPECT_FALSE(fks.injective_on(colliding));
}

TEST(Fks, SeedRoundtrip) {
  util::Rng rng(9);
  const auto fks = hashing::FksCompressor::sample(rng, 1u << 20, 16);
  util::BitBuffer buf;
  fks.append_seed(buf);
  EXPECT_EQ(buf.size_bits(), fks.seed_bits());
  util::BitReader reader(buf);
  const auto fks2 = hashing::FksCompressor::read_seed(reader);
  EXPECT_EQ(fks.range(), fks2.range());
}

TEST(Fks, SeedCostIsLogarithmic) {
  // O(log k + log log n) bits: tiny even for a 2^60 universe.
  util::Rng rng(9);
  const auto fks =
      hashing::FksCompressor::sample(rng, std::uint64_t{1} << 60, 256);
  EXPECT_LT(fks.seed_bits(), 100u);
}

// ---------- Toeplitz GF(2) hashing ----------

std::uint64_t hash64(const util::BitBuffer& data, unsigned bits,
                     const util::Rng& stream) {
  util::ScratchArena arena;
  return hashing::toeplitz_hash64(data, bits, stream, arena);
}

std::vector<std::uint64_t> hash_wide(const util::BitBuffer& data,
                                     std::size_t bits,
                                     const util::Rng& stream) {
  util::ScratchArena arena;
  std::vector<std::uint64_t> out(hashing::toeplitz_hash_words(bits));
  hashing::toeplitz_hash(data, bits, stream, arena, out);
  return out;
}

util::BitBuffer random_bits(util::Rng& rng, std::size_t n) {
  util::BitBuffer out;
  for (std::size_t i = 0; i < n; ++i) out.append_bit(rng.coin());
  return out;
}

TEST(ToeplitzHash, EqualInputsAlwaysHashEqual) {
  util::Rng rng(42);
  for (const std::size_t nbits : {0u, 32u, 64u, 65u, 1000u}) {
    const util::BitBuffer a = random_bits(rng, nbits);
    const util::BitBuffer b = a;
    for (const std::size_t bits : {16u, 64u, 200u, 8192u}) {
      for (int i = 0; i < 5; ++i) {
        const util::Rng s = util::Rng(7).substream(i);
        EXPECT_EQ(hash_wide(a, bits, s), hash_wide(b, bits, s));
      }
    }
  }
}

TEST(ToeplitzHash, UnequalInputsDisagreePerBitAboutHalfTheTime) {
  util::Rng stream(42);
  util::BitBuffer a;
  a.append_bits(0x1111, 16);
  util::BitBuffer b;
  b.append_bits(0x1112, 16);
  int disagreements = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    const util::Rng s = stream.substream(i);
    disagreements += hash64(a, 1, s) != hash64(b, 1, s);
  }
  EXPECT_NEAR(disagreements, trials / 2, trials / 10);
}

TEST(ToeplitzHash, MultiBitCollisionRateIsGeometric) {
  // Single-word and multi-word pairs; multi-word differing only in the
  // last word, where the fresh bits of r start furthest in.
  util::Rng rng(7);
  util::BitBuffer a1;
  a1.append_bits(123456, 24);
  util::BitBuffer b1;
  b1.append_bits(654321, 24);
  const util::BitBuffer a2 = random_bits(rng, 300);
  util::BitBuffer b2 = a2;
  b2.toggle_bit(299);
  const unsigned bits = 6;  // expected collision rate 1/64
  const int trials = 64000;
  auto collisions = [&](const util::BitBuffer& a, const util::BitBuffer& b) {
    int count = 0;
    for (int i = 0; i < trials; ++i) {
      const util::Rng s = util::Rng(7).substream(i);
      count += hash64(a, bits, s) == hash64(b, bits, s);
    }
    return count;
  };
  EXPECT_NEAR(collisions(a1, b1), trials / 64, trials / 200);
  EXPECT_NEAR(collisions(a2, b2), trials / 64, trials / 200);
}

TEST(ToeplitzHash, PrefixInputsStillSeparate) {
  // One message a strict bit-prefix of the other, zero-extended: only
  // the length word tells them apart.
  util::Rng stream(21);
  util::BitBuffer a;
  a.append_bits(0xff, 8);
  util::BitBuffer b;
  b.append_bits(0xff, 8);
  b.append_bit(false);
  int collisions = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    const util::Rng s = stream.substream(i);
    collisions += hash64(a, 8, s) == hash64(b, 8, s);
  }
  EXPECT_LT(collisions, trials / 50);
}

TEST(ToeplitzHash, NarrowHashIsPrefixOfWideHash) {
  // Bit j reads r[j, j + |z|) whatever the width, so a b-bit hash is the
  // first b bits of any wider one.
  util::Rng rng(33);
  const util::BitBuffer data = random_bits(rng, 150);
  const util::Rng stream(33);
  const std::vector<std::uint64_t> wide = hash_wide(data, 8192, stream);
  for (const std::size_t bits : {1u, 63u, 64u, 65u, 130u, 200u}) {
    const std::vector<std::uint64_t> narrow = hash_wide(data, bits, stream);
    ASSERT_EQ(narrow.size(), hashing::toeplitz_hash_words(bits));
    for (std::size_t w = 0; w < narrow.size(); ++w) {
      const unsigned width =
          static_cast<unsigned>(std::min<std::size_t>(64, bits - 64 * w));
      const std::uint64_t mask =
          width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
      EXPECT_EQ(narrow[w], wide[w] & mask) << "bits " << bits << " word " << w;
    }
  }
}

TEST(ToeplitzHash, WideIsDeterministicAndContentSensitive) {
  const util::Rng stream(33);
  util::BitBuffer d1;
  d1.append_bits(111, 32);
  util::BitBuffer d2;
  d2.append_bits(222, 32);
  EXPECT_EQ(hash_wide(d1, 100, stream), hash_wide(d1, 100, stream));
  EXPECT_NE(hash_wide(d1, 100, stream), hash_wide(d2, 100, stream));
}

TEST(ToeplitzHash, ScratchComesFromTheArenaAndIsReleased) {
  util::Rng rng(5);
  const util::BitBuffer data = random_bits(rng, 5000);
  util::ScratchArena arena;
  std::vector<std::uint64_t> out(hashing::toeplitz_hash_words(1000));
  hashing::toeplitz_hash(data, 1000, util::Rng(1), arena, out);
  EXPECT_EQ(arena.words_in_use(), 0u);
  EXPECT_GT(arena.high_water_words(), 2 * (5000 / 64));
}

TEST(ToeplitzHash, RejectsBadWidths) {
  util::BitBuffer data;
  util::ScratchArena arena;
  EXPECT_THROW(hashing::toeplitz_hash64(data, 65, util::Rng(1), arena),
               std::invalid_argument);
  std::vector<std::uint64_t> out(1);
  EXPECT_THROW(hashing::toeplitz_hash(data, 65, util::Rng(1), arena, out),
               std::invalid_argument);
}

// --- The division-free reduction engine (hashing/barrett.h) -----------------
// Exactness over the full 64-bit domain is the whole contract: these
// reducers replace `%` inside hash evaluation, and golden transcripts pin
// that the replacement changes no computed value.

TEST(Reducer64, MatchesHardwareRemainderRandomized) {
  util::Rng rng(0xbad5eed);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::uint64_t d = rng.next() | 1;  // random odd divisor
    const std::uint64_t a = rng.next();
    const hashing::Reducer64 red(d);
    ASSERT_EQ(red.mod(a), a % d) << "a=" << a << " d=" << d;
  }
}

TEST(Reducer64, EdgeDivisorsAndValues) {
  const std::uint64_t max64 = ~std::uint64_t{0};
  const std::uint64_t divisors[] = {1,       2,        3,          4,
                                    5,       (1u << 16), (1ull << 32), (1ull << 62),
                                    max64 - 1, max64};
  const std::uint64_t values[] = {0, 1, 2, 3, (1ull << 32) - 1, (1ull << 32),
                                  (1ull << 63), max64 - 1, max64};
  for (std::uint64_t d : divisors) {
    const hashing::Reducer64 red(d);
    for (std::uint64_t a : values) {
      ASSERT_EQ(red.mod(a), a % d) << "a=" << a << " d=" << d;
    }
  }
}

TEST(Reducer64, RejectsZeroDivisor) {
  EXPECT_THROW(hashing::Reducer64(0), std::invalid_argument);
}

TEST(Montgomery64, MulMatchesMulmodRandomized) {
  util::Rng rng(0x5ca1ab1e);
  for (int trial = 0; trial < 20000; ++trial) {
    // Random odd modulus in [3, 2^63).
    const std::uint64_t m = (rng.below((std::uint64_t{1} << 62) - 2) * 2) + 3;
    const std::uint64_t a = rng.below(m);
    const std::uint64_t b = rng.below(m);
    const hashing::Montgomery64 mont(m);
    // Mixed-domain product: mul(to_mont(a), b) == a*b mod m.
    const std::uint64_t am = mont.to_mont(a);
    ASSERT_EQ(mont.mul(am, b), hashing::mulmod(a, b, m))
        << "a=" << a << " b=" << b << " m=" << m;
    ASSERT_EQ(mont.from_mont(am), a);
  }
}

TEST(Montgomery64, RejectsUnusableModuli) {
  EXPECT_THROW(hashing::Montgomery64(0), std::invalid_argument);
  EXPECT_THROW(hashing::Montgomery64(1), std::invalid_argument);
  EXPECT_THROW(hashing::Montgomery64(4), std::invalid_argument);  // even
  EXPECT_THROW(hashing::Montgomery64(std::uint64_t{1} << 63),
               std::invalid_argument);
}

TEST(PairwiseHash, EngineMatchesPlainFormula) {
  util::Rng rng(7331);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t universe = 2 + rng.below(std::uint64_t{1} << 40);
    const std::uint64_t range = 2 + rng.below(1u << 20);
    const auto h = hashing::PairwiseHash::sample(rng, universe, range);
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t x = rng.below(universe);
      const std::uint64_t p = hashing::PairwiseHash::kPrime;
      const std::uint64_t expected =
          (hashing::mulmod(h.multiplier(), x % p, p) + h.offset()) % p %
          h.range();
      ASSERT_EQ(h(x), expected) << "x=" << x << " p=" << p;
    }
  }
}

// --- The next-prime call counter (hashing/primes.h) ------------------------

TEST(PrimeCache, CountsCallsAndSearchesDeterministically) {
  hashing::prime_cache_clear();
  EXPECT_EQ(hashing::prime_cache_stats().misses, 0u);

  util::Rng rng(99);
  std::vector<std::uint64_t> candidates(64);
  for (auto& c : candidates) c = 100 + rng.below(1u << 26);
  std::vector<std::uint64_t> first, second;
  for (std::uint64_t c : candidates) {
    first.push_back(hashing::next_prime_at_least(c));
  }
  for (std::uint64_t c : candidates) {
    second.push_back(hashing::next_prime_at_least(c));
  }
  EXPECT_EQ(first, second);
  const hashing::PrimeCacheStats stats = hashing::prime_cache_stats();
  EXPECT_EQ(stats.misses, 2 * candidates.size());
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 0u);

  // Same seed, same primes.
  std::vector<std::uint64_t> sampled[2];
  for (auto& primes : sampled) {
    util::Rng prng(4242);
    for (int i = 0; i < 32; ++i) {
      primes.push_back(hashing::random_prime_in(prng, 1u << 16, 1u << 22));
    }
  }
  EXPECT_EQ(sampled[0], sampled[1]);
  EXPECT_GE(hashing::prime_cache_stats().misses, 2 * candidates.size() + 64);

  hashing::prime_cache_clear();
  EXPECT_EQ(hashing::prime_cache_stats().misses, 0u);
}

}  // namespace
}  // namespace setint

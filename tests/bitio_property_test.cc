// Property-based round-trip tests for the codecs: randomized
// encode -> decode across widths and edge values, complementing the
// fixed fuzz corpus in tests/fuzz/. Also pins the equivalence of the
// word-wise append fast paths with the bit-at-a-time reference, and the
// BufferPool recycling contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "hashing/fks.h"
#include "hashing/pairwise.h"
#include "hashing/toeplitz_hash.h"
#include "simd/dispatch.h"
#include "util/arena.h"
#include "util/bitio.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint::util {
namespace {

// ---------- append_bits / read_bits ----------

TEST(BitioProperty, AppendBitsRoundTripRandomWidths) {
  Rng rng(0x1B17);
  for (int trial = 0; trial < 2000; ++trial) {
    const unsigned width = static_cast<unsigned>(rng.below(65));  // 0..64
    const std::uint64_t value =
        width == 0 ? 0
        : width == 64 ? rng.next()
                      : rng.next() & ((std::uint64_t{1} << width) - 1);
    // Random preceding offset so the word boundary lands everywhere.
    const unsigned prefix = static_cast<unsigned>(rng.below(130));
    BitBuffer b;
    for (unsigned i = 0; i < prefix; ++i) b.append_bit(rng.coin());
    b.append_bits(value, width);
    ASSERT_EQ(b.size_bits(), prefix + width);
    BitReader r(b);
    for (unsigned i = 0; i < prefix; ++i) r.read_bit();
    EXPECT_EQ(r.read_bits(width), value) << "width " << width;
  }
}

TEST(BitioProperty, AppendBitsEdgeValues) {
  for (unsigned width : {1u, 2u, 31u, 32u, 33u, 63u, 64u}) {
    const std::uint64_t max =
        width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    for (std::uint64_t value : {std::uint64_t{0}, std::uint64_t{1}, max}) {
      BitBuffer b;
      b.append_bits(value, width);
      BitReader r(b);
      EXPECT_EQ(r.read_bits(width), value) << width;
      EXPECT_TRUE(r.exhausted());
    }
  }
}

// The word-wise fast path must build the exact same buffer (bits, words,
// fingerprint) as the bit-at-a-time reference.
TEST(BitioProperty, WordWiseAppendMatchesBitAtATimeReference) {
  Rng rng(0x2B17);
  for (int trial = 0; trial < 500; ++trial) {
    BitBuffer fast;
    BitBuffer reference;
    for (int op = 0; op < 20; ++op) {
      const unsigned width = static_cast<unsigned>(rng.below(65));
      const std::uint64_t value =
          width == 0 ? 0
          : width == 64 ? rng.next()
                        : rng.next() & ((std::uint64_t{1} << width) - 1);
      fast.append_bits(value, width);
      for (unsigned i = 0; i < width; ++i) {
        reference.append_bit((value >> i) & 1);
      }
    }
    ASSERT_EQ(fast, reference);
    EXPECT_EQ(fast.fingerprint(), reference.fingerprint());
    EXPECT_EQ(fast.words(), reference.words());
  }
}

TEST(BitioProperty, AppendBufferMatchesBitCopy) {
  Rng rng(0x3B17);
  for (int trial = 0; trial < 300; ++trial) {
    BitBuffer src;
    const std::size_t n = rng.below(200);
    for (std::size_t i = 0; i < n; ++i) src.append_bit(rng.coin());
    BitBuffer fast;
    BitBuffer reference;
    const std::size_t prefix = rng.below(70);
    for (std::size_t i = 0; i < prefix; ++i) {
      const bool bit = rng.coin();
      fast.append_bit(bit);
      reference.append_bit(bit);
    }
    fast.append_buffer(src);
    for (std::size_t i = 0; i < src.size_bits(); ++i) {
      reference.append_bit(src.bit(i));
    }
    ASSERT_EQ(fast, reference);
    EXPECT_EQ(fast.words(), reference.words());
  }
}

// ---------- truncate ----------

TEST(BitioProperty, TruncateNormalizesStorage) {
  Rng rng(0x4B17);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.below(300);
    std::vector<bool> bits(n);
    BitBuffer full;
    for (std::size_t i = 0; i < n; ++i) {
      bits[i] = rng.coin();
      full.append_bit(bits[i]);
    }
    const std::size_t cut = rng.below(n + 1);
    full.truncate(cut);
    // Reference: a buffer built at the shorter size from scratch.
    BitBuffer reference;
    for (std::size_t i = 0; i < cut; ++i) reference.append_bit(bits[i]);
    ASSERT_EQ(full, reference);
    EXPECT_EQ(full.fingerprint(), reference.fingerprint());
    EXPECT_EQ(full.words(), reference.words());
    // Appending after a truncate behaves like appending to the reference.
    full.append_bits(0x2D, 6);
    reference.append_bits(0x2D, 6);
    EXPECT_EQ(full, reference);
    EXPECT_EQ(full.words(), reference.words());
  }
}

TEST(BitioProperty, TruncatePastEndIsANoop) {
  BitBuffer b;
  b.append_bits(0b1011, 4);
  b.truncate(10);
  EXPECT_EQ(b.size_bits(), 4u);
  b.truncate(4);
  EXPECT_EQ(b.size_bits(), 4u);
}

// ---------- gamma ----------

TEST(BitioProperty, GammaRoundTripRandomAndEdges) {
  Rng rng(0x5B17);
  std::vector<std::uint64_t> values = {0, 1, 2, 3, 62, 63, 64, 65,
                                       (std::uint64_t{1} << 32) - 1,
                                       std::uint64_t{1} << 32,
                                       (std::uint64_t{1} << 63) - 1,
                                       std::uint64_t{1} << 63,
                                       ~std::uint64_t{0} - 1};
  for (int trial = 0; trial < 2000; ++trial) {
    values.push_back(rng.next() >> rng.below(64));
  }
  BitBuffer b;
  for (std::uint64_t v : values) {
    const std::size_t before = b.size_bits();
    b.append_gamma64(v);
    EXPECT_EQ(b.size_bits() - before, gamma64_cost_bits(v)) << v;
  }
  BitReader r(b);
  for (std::uint64_t v : values) {
    ASSERT_EQ(r.read_gamma64(), v);
  }
  EXPECT_TRUE(r.exhausted());
}

// ---------- Rice ----------

TEST(BitioProperty, RiceRoundTripAcrossParameters) {
  Rng rng(0x6B17);
  for (unsigned param : {0u, 1u, 5u, 13u, 31u, 47u, 63u}) {
    BitBuffer b;
    std::vector<std::uint64_t> values;
    for (int trial = 0; trial < 300; ++trial) {
      // Quotient bounded (the encoder refuses > 2^20 unary runs);
      // remainder spans the full parameter width including all-ones.
      const std::uint64_t q = rng.below(100);
      const std::uint64_t rem =
          param == 0 ? 0
                     : (trial % 3 == 0 ? (std::uint64_t{1} << param) - 1
                                       : rng.below(std::uint64_t{1} << param));
      values.push_back((q << param) | rem);
    }
    values.push_back(0);  // all-zeros codeword shape
    for (std::uint64_t v : values) {
      const std::size_t before = b.size_bits();
      b.append_rice(v, param);
      EXPECT_EQ(b.size_bits() - before, rice_cost_bits(v, param));
    }
    BitReader r(b);
    for (std::uint64_t v : values) {
      ASSERT_EQ(r.read_rice(param), v) << "param " << param;
    }
    EXPECT_TRUE(r.exhausted());
  }
}

// ---------- word-level codecs vs bit-at-a-time reference ----------

// The encoders and decoders work a word at a time (masked shifts and
// countr_zero/countr_one). These references spell each code out bit by
// bit, as its definition reads.
void reference_append_gamma(BitBuffer& b, std::uint64_t v) {
  const unsigned n = 63u - static_cast<unsigned>(std::countl_zero(v));
  for (unsigned i = 0; i < n; ++i) b.append_bit(false);
  for (unsigned i = 0; i <= n; ++i) b.append_bit((v >> (n - i)) & 1);
}

void reference_append_rice(BitBuffer& b, std::uint64_t v, unsigned param) {
  for (std::uint64_t i = 0; i < (v >> param); ++i) b.append_bit(true);
  b.append_bit(false);
  for (unsigned i = 0; i < param; ++i) b.append_bit((v >> i) & 1);
}

std::uint64_t reference_read_bits(const BitBuffer& b, std::size_t& pos,
                                  unsigned width) {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < width; ++i) {
    if (b.bit(pos++)) v |= std::uint64_t{1} << i;
  }
  return v;
}

std::uint64_t reference_read_gamma(const BitBuffer& b, std::size_t& pos) {
  unsigned n = 0;
  while (!b.bit(pos++)) ++n;
  std::uint64_t v = 1;
  for (unsigned i = 0; i < n; ++i) v = (v << 1) | (b.bit(pos++) ? 1 : 0);
  return v;
}

std::uint64_t reference_read_rice(const BitBuffer& b, std::size_t& pos,
                                  unsigned param) {
  std::uint64_t q = 0;
  while (b.bit(pos++)) ++q;
  return (q << param) | reference_read_bits(b, pos, param);
}

// 1, 2^j - 1 and 2^j for every j, up to 2^64 - 1.
std::vector<std::uint64_t> gamma_pin_values() {
  std::vector<std::uint64_t> values = {1};
  for (unsigned j = 1; j <= 64; ++j) {
    values.push_back(j == 64 ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << j) - 1);
    if (j < 64) values.push_back(std::uint64_t{1} << j);
  }
  return values;
}

// Rice values for every parameter 0..63: quotients around one and two
// words of unary (clamped to what fits in 64 bits) and all-ones or random
// remainders.
std::vector<std::uint64_t> rice_pin_values(unsigned param, Rng& rng) {
  std::vector<std::uint64_t> values;
  const std::uint64_t max_q = ~std::uint64_t{0} >> param;
  const std::uint64_t rem_mask =
      param == 0 ? 0 : ~std::uint64_t{0} >> (64 - param);
  for (std::uint64_t q : {0, 1, 62, 63, 64, 65, 127, 128, 130}) {
    q = std::min(q, max_q);
    values.push_back(q << param | rem_mask);
    values.push_back(q << param | (rng.next() & rem_mask));
  }
  return values;
}

TEST(BitioProperty, WordLevelCodecsMatchBitAtATimeReference) {
  Rng rng(0xC0DE);
  const std::vector<std::uint64_t> gammas = gamma_pin_values();
  for (unsigned offset = 0; offset < 64; ++offset) {
    BitBuffer fast;
    BitBuffer reference;
    for (unsigned i = 0; i < offset; ++i) {
      const bool bit = rng.coin();
      fast.append_bit(bit);
      reference.append_bit(bit);
    }
    for (std::uint64_t v : gammas) {
      fast.append_elias_gamma(v);
      reference_append_gamma(reference, v);
    }
    std::vector<std::vector<std::uint64_t>> rices(64);
    for (unsigned param = 0; param < 64; ++param) {
      rices[param] = rice_pin_values(param, rng);
      for (std::uint64_t v : rices[param]) {
        fast.append_rice(v, param);
        reference_append_rice(reference, v, param);
      }
    }
    ASSERT_EQ(fast.words(), reference.words()) << "offset " << offset;
    ASSERT_EQ(fast.size_bits(), reference.size_bits());

    BitReader r(fast);
    std::size_t pos = 0;
    ASSERT_EQ(r.read_bits(offset), reference_read_bits(fast, pos, offset));
    for (std::uint64_t v : gammas) {
      ASSERT_EQ(reference_read_gamma(fast, pos), v);
      ASSERT_EQ(r.read_elias_gamma(), v) << "offset " << offset;
      ASSERT_EQ(r.position(), pos);
    }
    for (unsigned param = 0; param < 64; ++param) {
      for (std::uint64_t v : rices[param]) {
        ASSERT_EQ(reference_read_rice(fast, pos, param), v);
        ASSERT_EQ(r.read_rice(param), v)
            << "offset " << offset << " param " << param;
        ASSERT_EQ(r.position(), pos);
      }
    }
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(BitioProperty, ReadBitsMatchesReferenceAtEveryOffsetAndWidth) {
  Rng rng(0xB175);
  BitBuffer b;
  for (int i = 0; i < 64 + 64 + 64; ++i) b.append_bit(rng.coin());
  for (unsigned offset = 0; offset < 64; ++offset) {
    for (unsigned width = 0; width <= 64; ++width) {
      BitReader r(b);
      (void)r.read_bits(offset);
      std::size_t pos = offset;
      ASSERT_EQ(r.read_bits(width), reference_read_bits(b, pos, width))
          << "offset " << offset << " width " << width;
      ASSERT_EQ(r.position(), pos);
    }
    // A read that ends exactly at the last bit succeeds; one bit more is
    // past the end.
    BitBuffer exact;
    for (unsigned i = 0; i < offset + 64; ++i) exact.append_bit(b.bit(i));
    BitReader ok(exact);
    (void)ok.read_bits(offset);
    std::size_t pos = offset;
    EXPECT_EQ(ok.read_bits(64), reference_read_bits(exact, pos, 64));
    BitReader over(exact);
    (void)over.read_bits(offset + 1);
    EXPECT_THROW((void)over.read_bits(64), std::out_of_range);
  }
}

TEST(BitioProperty, CraftedFramesKeepTheirExceptionTypes) {
  for (unsigned offset : {0u, 1u, 37u, 63u}) {
    // 64 zeros cannot start a gamma codeword, whatever follows.
    BitBuffer zeros;
    for (unsigned i = 0; i < offset; ++i) zeros.append_bit(true);
    zeros.append_bits(0, 64);
    zeros.append_bit(true);
    BitReader zr(zeros);
    (void)zr.read_bits(offset);
    EXPECT_THROW((void)zr.read_elias_gamma(), std::invalid_argument);
    // Exactly 64 zeros at the end is still a 64-zero run; 63 run out.
    zeros.truncate(offset + 64);
    BitReader z64(zeros);
    (void)z64.read_bits(offset);
    EXPECT_THROW((void)z64.read_elias_gamma(), std::invalid_argument);
    zeros.truncate(offset + 63);
    BitReader z63(zeros);
    (void)z63.read_bits(offset);
    EXPECT_THROW((void)z63.read_elias_gamma(), std::out_of_range);

    // A gamma or Rice codeword cut inside its word runs past the end.
    for (std::size_t cut : {1u, 20u, 50u}) {
      BitBuffer gamma;
      gamma.append_bits(0, offset);
      gamma.append_elias_gamma((std::uint64_t{1} << 40) + 12345);
      gamma.truncate(gamma.size_bits() - cut);
      BitReader gr(gamma);
      (void)gr.read_bits(offset);
      EXPECT_THROW((void)gr.read_elias_gamma(), std::out_of_range) << cut;

      BitBuffer rice;
      rice.append_bits(0, offset);
      rice.append_rice((std::uint64_t{70} << 30) | 12345, 30);
      rice.truncate(rice.size_bits() - cut);
      BitReader rr(rice);
      (void)rr.read_bits(offset);
      EXPECT_THROW((void)rr.read_rice(30), std::out_of_range) << cut;
    }

    // A quotient one past the largest that fits in 64 bits (16 at b = 60),
    // and one past the 2^20 unary cap at b = 0.
    BitBuffer overflow;
    overflow.append_bits(0, offset);
    overflow.append_bits(0xFFFF, 16);
    overflow.append_bit(false);
    BitReader orr(overflow);
    (void)orr.read_bits(offset);
    EXPECT_THROW((void)orr.read_rice(60), std::invalid_argument);

    BitBuffer long_run;
    long_run.append_bits(0, offset);
    for (int i = 0; i < (1 << 20) / 64 + 1; ++i) {
      long_run.append_bits(~std::uint64_t{0}, 64);
    }
    BitReader lr(long_run);
    (void)lr.read_bits(offset);
    EXPECT_THROW((void)lr.read_rice(0), std::invalid_argument);
  }
}

// ---------- canonical set codecs ----------

TEST(BitioProperty, CanonicalSetRoundTripRandom) {
  Rng rng(0x7B17);
  for (int trial = 0; trial < 400; ++trial) {
    const std::uint64_t universe = 2 + (std::uint64_t{1} << rng.below(40));
    const std::size_t size = static_cast<std::size_t>(
        rng.below(std::min<std::uint64_t>(universe, 200) + 1));
    const Set s = random_set(rng, universe, size);
    {
      BitBuffer b;
      append_set(b, s);
      EXPECT_EQ(b.size_bits(), set_encoding_cost_bits(s));
      BitReader r(b);
      EXPECT_EQ(read_set(r), s);
      EXPECT_TRUE(r.exhausted());
    }
    {
      BitBuffer b;
      append_set_rice(b, s, universe);
      EXPECT_EQ(b.size_bits(), set_rice_cost_bits(s, universe));
      BitReader r(b);
      EXPECT_EQ(read_set_rice(r, universe), s);
      EXPECT_TRUE(r.exhausted());
    }
  }
}

TEST(BitioProperty, CanonicalSetEdgeShapes) {
  const std::uint64_t top = (std::uint64_t{1} << 40) - 1;
  std::vector<std::pair<Set, std::uint64_t>> shapes;
  shapes.push_back({Set{}, 16});            // empty
  shapes.push_back({Set{0}, 1});            // minimal universe
  shapes.push_back({Set{top}, top + 1});    // single max element
  shapes.push_back({Set{0, top}, top + 1});  // extremes only
  {
    Set dense;  // all-consecutive run: deltas all zero after -1 shift
    for (std::uint64_t i = 0; i < 128; ++i) dense.push_back(i);
    shapes.push_back({dense, 128});
    Set even;  // constant gap 2
    for (std::uint64_t i = 0; i < 128; ++i) even.push_back(2 * i);
    shapes.push_back({even, 256});
  }
  for (const auto& [s, universe] : shapes) {
    BitBuffer b;
    append_set(b, s);
    BitReader r(b);
    EXPECT_EQ(read_set(r), s);
    BitBuffer br;
    append_set_rice(br, s, universe);
    BitReader rr(br);
    EXPECT_EQ(read_set_rice(rr, universe), s);
  }
}

// Round-trips survive concatenation: many mixed records in one buffer,
// decoded in order — the access pattern protocol messages actually use.
TEST(BitioProperty, MixedRecordStreamRoundTrip) {
  Rng rng(0x8B17);
  for (int trial = 0; trial < 100; ++trial) {
    BitBuffer b;
    struct Record {
      int kind;
      std::uint64_t value;
      unsigned width;
      Set set;
    };
    std::vector<Record> records;
    for (int i = 0; i < 30; ++i) {
      Record rec;
      rec.kind = static_cast<int>(rng.below(4));
      switch (rec.kind) {
        case 0:
          rec.width = 1 + static_cast<unsigned>(rng.below(64));
          rec.value = rec.width == 64
                          ? rng.next()
                          : rng.next() & ((std::uint64_t{1} << rec.width) - 1);
          b.append_bits(rec.value, rec.width);
          break;
        case 1:
          rec.value = rng.next() >> rng.below(64);
          b.append_gamma64(rec.value);
          break;
        case 2:
          rec.width = static_cast<unsigned>(rng.below(20));
          rec.value = rng.below(1000) << rec.width >> rng.below(4);
          b.append_rice(rec.value, rec.width);
          break;
        default:
          rec.set = random_set(rng, 1u << 24, rng.below(40));
          append_set(b, rec.set);
          break;
      }
      records.push_back(std::move(rec));
    }
    BitReader r(b);
    for (const Record& rec : records) {
      switch (rec.kind) {
        case 0:
          ASSERT_EQ(r.read_bits(rec.width), rec.value);
          break;
        case 1:
          ASSERT_EQ(r.read_gamma64(), rec.value);
          break;
        case 2:
          ASSERT_EQ(r.read_rice(rec.width), rec.value);
          break;
        default:
          ASSERT_EQ(read_set(r), rec.set);
          break;
      }
    }
    EXPECT_TRUE(r.exhausted());
  }
}

// ---------- batched hash paths ----------
//
// The array-batched entry points (hash_many) are the hot-path engine's
// public contract: same values as the scalar operator() applied element
// by element, across random seeds, array sizes (including empty), and
// inputs both inside and outside the nominal universe.

TEST(BatchedHash, PairwiseHashManyMatchesScalarLoop) {
  Rng rng(0x9A7C);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t universe = 2 + rng.below(std::uint64_t{1} << 40);
    const std::uint64_t range = 1 + rng.below(1 << 16);
    const auto h = hashing::PairwiseHash::sample(rng, universe, range);
    const std::size_t n = static_cast<std::size_t>(rng.below(257));
    std::vector<std::uint64_t> xs(n);
    for (auto& x : xs) {
      // Mostly in-universe, occasionally arbitrary 64-bit values: the
      // scalar path reduces mod p first, and the batch must match there
      // too.
      x = rng.below(8) == 0 ? rng.next() : rng.below(universe);
    }
    std::vector<std::uint64_t> batched(n);
    h.hash_many(xs, batched);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(batched[i], h(xs[i])) << "trial " << trial << " i " << i;
      ASSERT_LT(batched[i], range);
    }
  }
}

TEST(BatchedHash, FksHashManyMatchesScalarLoop) {
  Rng rng(0xF457);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t universe = 2 + rng.below(std::uint64_t{1} << 44);
    const std::uint64_t max_elements = 2 + rng.below(1 << 10);
    const auto f = hashing::FksCompressor::sample(rng, universe, max_elements);
    const std::size_t n = static_cast<std::size_t>(rng.below(129));
    std::vector<std::uint64_t> xs(n);
    for (auto& x : xs) x = rng.next();
    std::vector<std::uint64_t> batched(n);
    f.hash_many(xs, batched);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(batched[i], f(xs[i])) << "trial " << trial << " i " << i;
      ASSERT_LT(batched[i], f.range());
    }
  }
}

// The batched==scalar pin, re-checked under each dispatch tier: whatever
// the process dispatches to, hash_many must reproduce the scalar
// operator() chain bit for bit — this is what keeps seeded draw order and
// golden transcripts unchanged.
TEST(BatchedHash, HashManyLanesMatchScalarOnEveryTier) {
  Rng rng(0x71E2);
  for (int trial = 0; trial < 60; ++trial) {
    const std::uint64_t universe = 2 + rng.below(std::uint64_t{1} << 40);
    const std::uint64_t range = 1 + rng.below(1 << 14);
    const auto h = hashing::PairwiseHash::sample(rng, universe, range);
    const auto f = hashing::FksCompressor::sample(rng, universe,
                                                  2 + rng.below(1 << 8));
    const std::size_t n = static_cast<std::size_t>(rng.below(200));
    std::vector<std::uint64_t> xs(n);
    for (auto& x : xs) {
      x = rng.below(8) == 0 ? rng.next() : rng.below(universe);
    }
    std::vector<std::uint64_t> pairwise_batch(n), fks_batch(n);
    for (simd::Tier tier : {simd::Tier::kScalar, simd::Tier::kClmul}) {
      simd::ScopedTierOverride forced(tier);
      h.hash_many(xs, pairwise_batch);
      f.hash_many(xs, fks_batch);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(pairwise_batch[i], h(xs[i]))
            << "tier " << simd::tier_name(tier) << " trial " << trial;
        ASSERT_EQ(fks_batch[i], f(xs[i]))
            << "tier " << simd::tier_name(tier) << " trial " << trial;
      }
    }
  }
}

TEST(BatchedHash, HashManyRejectsShortOutput) {
  Rng rng(0x0E0E);
  const auto h = hashing::PairwiseHash::sample(rng, 1 << 20, 1 << 10);
  const auto f = hashing::FksCompressor::sample(rng, 1 << 20, 64);
  const std::vector<std::uint64_t> xs(8, 5);
  std::vector<std::uint64_t> out(7);
  EXPECT_THROW(h.hash_many(xs, out), std::invalid_argument);
  EXPECT_THROW(f.hash_many(xs, out), std::invalid_argument);
}

// ---------- BitSpanWriter / pack_sets ----------

// The span writer lays bits and gamma codes out exactly like BitBuffer,
// and refuses to write past its span.
TEST(BitioProperty, SpanWriterMatchesBitBuffer) {
  Rng rng(0x5A17);
  for (int trial = 0; trial < 300; ++trial) {
    struct Op {
      bool gamma;
      std::uint64_t value;
      unsigned width;
    };
    std::vector<Op> ops;
    BitBuffer ref;
    const int n = static_cast<int>(rng.below(40));
    for (int i = 0; i < n; ++i) {
      if (rng.coin()) {
        const std::uint64_t v = rng.next() >> rng.below(64);
        ops.push_back({true, v, 0});
        ref.append_gamma64(v);
      } else {
        const auto width = static_cast<unsigned>(rng.below(65));
        const std::uint64_t v =
            width == 0 ? 0 : rng.next() >> (64 - width);
        ops.push_back({false, v, width});
        ref.append_bits(v, width);
      }
    }
    std::vector<std::uint64_t> words(ref.words().size(), 0);
    BitSpanWriter writer(words);
    for (const Op& op : ops) {
      if (op.gamma) {
        writer.append_gamma64(op.value);
      } else {
        writer.append_bits(op.value, op.width);
      }
    }
    ASSERT_EQ(writer.size_bits(), ref.size_bits());
    EXPECT_EQ(words, ref.words());
    const std::size_t spare = 64 * words.size() - ref.size_bits();
    const auto over =
        static_cast<unsigned>(std::min<std::size_t>(64, spare + 1));
    EXPECT_THROW(writer.append_bits(0, over), std::out_of_range);
  }
}

// Each packed string is word for word the BitBuffer that append_set
// builds for its group, empty groups and empty sets included.
TEST(BitioProperty, PackSetsMatchesAppendSet) {
  Rng rng(0xBAC5);
  ScratchArena arena;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Set> owned(1 + rng.below(30));
    for (Set& s : owned) {
      s = random_set(rng, std::uint64_t{1} << (3 + rng.below(40)),
                     rng.below(6));
    }
    const std::vector<SetView> sets(owned.begin(), owned.end());
    std::vector<std::pair<std::size_t, std::size_t>> groups;
    for (std::size_t lo = 0; lo < sets.size();) {
      const std::size_t hi = std::min(sets.size(), lo + rng.below(4));
      groups.emplace_back(lo, hi);  // empty groups too
      lo = hi;
    }
    ScratchArena::Frame frame(arena);
    std::vector<BitSpan> packed(groups.size());
    pack_sets(sets, groups, arena, packed);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      BitBuffer ref;
      for (std::size_t i = groups[g].first; i < groups[g].second; ++i) {
        append_set(ref, sets[i]);
      }
      EXPECT_EQ(packed[g].bits, ref.size_bits());
      EXPECT_TRUE(std::equal(packed[g].words.begin(), packed[g].words.end(),
                             ref.words().begin(), ref.words().end()));
    }
  }
}

// Bit-at-a-time Hankel reference for toeplitz_hash: z is the 64-bit
// length word followed by the data bits, r the stream's bits in draw
// order, and hash bit j is the parity of z AND r[j, j + |z|).
class ToeplitzReference {
 public:
  ToeplitzReference(const BitBuffer& data, std::size_t bits, Rng stream) {
    for (unsigned c = 0; c < 64; ++c) z_.push_back((data.size_bits() >> c) & 1);
    for (std::size_t i = 0; i < data.size_bits(); ++i) {
      z_.push_back(data.bit(i));
    }
    while (r_.size() < z_.size() + bits) {
      const std::uint64_t w = stream.next();
      for (unsigned c = 0; c < 64; ++c) r_.push_back((w >> c) & 1);
    }
  }

  bool bit(std::size_t j) const {
    std::uint8_t parity = 0;
    for (std::size_t i = 0; i < z_.size(); ++i) parity ^= z_[i] & r_[j + i];
    return parity != 0;
  }

 private:
  std::vector<std::uint8_t> z_;
  std::vector<std::uint8_t> r_;
};

// Every tier this machine runs: the scalar word loop, and the carry-less
// multiply product when the CPU reports PCLMULQDQ.
std::vector<simd::Tier> toeplitz_tiers() {
  std::vector<simd::Tier> tiers;
  for (const simd::Tier t : {simd::Tier::kScalar, simd::Tier::kClmul}) {
    if (t <= simd::detected_tier()) tiers.push_back(t);
  }
  return tiers;
}

std::vector<std::uint64_t> toeplitz_hash_at(simd::Tier tier,
                                            const BitBuffer& data,
                                            std::size_t bits, Rng stream,
                                            ScratchArena& arena) {
  const simd::ScopedTierOverride forced(tier);
  std::vector<std::uint64_t> out(hashing::toeplitz_hash_words(bits));
  hashing::toeplitz_hash(data, bits, stream, arena, out);
  return out;
}

// |z| = 64 + |data| covers every residue class the kernels special-case:
// |z| = 0, 1 and 63 (mod 64), plus random lengths; widths >= 64 cover
// every shift s = j % 64, s = 0 included.
TEST(BatchedHash, ToeplitzHashMatchesHankelReference) {
  Rng rng(0x3A5C);
  ScratchArena arena;
  std::vector<std::size_t> lengths = {0, 1, 63, 64, 65, 127, 128, 129, 400};
  for (int i = 0; i < 12; ++i) lengths.push_back(rng.below(401));
  std::uint64_t trial = 0;
  for (const std::size_t nbits : lengths) {
    BitBuffer data;
    for (std::size_t i = 0; i < nbits; ++i) data.append_bit(rng.coin());
    for (const std::size_t bits : {1u, 63u, 64u, 65u, 128u, 200u, 8192u}) {
      const Rng stream = Rng(0xC0FFEE).substream(trial++);
      const ToeplitzReference ref(data, bits, stream);
      for (const simd::Tier tier : toeplitz_tiers()) {
        SCOPED_TRACE(testing::Message()
                     << "tier " << simd::tier_name(tier) << " nbits " << nbits
                     << " bits " << bits);
        const std::vector<std::uint64_t> out =
            toeplitz_hash_at(tier, data, bits, stream, arena);
        std::size_t mismatches = 0;
        for (std::size_t j = 0; j < bits; ++j) {
          mismatches += ((out[j / 64] >> (j % 64)) & 1) != ref.bit(j);
        }
        EXPECT_EQ(mismatches, 0u);
        if (bits % 64 != 0) {
          EXPECT_EQ(out.back() >> (bits % 64), 0u) << "bits past the width";
        }
        if (bits <= 64) {
          const simd::ScopedTierOverride forced(tier);
          EXPECT_EQ(hashing::toeplitz_hash64(
                        data, static_cast<unsigned>(bits), stream, arena),
                    out[0]);
        }
      }
    }
  }
  EXPECT_EQ(arena.words_in_use(), 0u);
}

// The certificate's shape at k = 4096: |z| ~ 82.7k bits, b = 8192. The
// reference is checked on the first and last output words and on random
// bits in between; the tiers must agree on every word.
TEST(BatchedHash, ToeplitzHashCertificateShapeOnEveryTier) {
  Rng rng(0xCE27);
  ScratchArena arena;
  BitBuffer data;
  for (std::size_t i = 0; i < 82618; ++i) data.append_bit(rng.coin());
  constexpr std::size_t kBits = 8192;
  const Rng stream(0x5EED);
  const ToeplitzReference ref(data, kBits, stream);
  std::vector<std::size_t> probes;
  for (std::size_t j = 0; j < 64; ++j) {
    probes.push_back(j);
    probes.push_back(kBits - 64 + j);
  }
  for (int i = 0; i < 64; ++i) probes.push_back(rng.below(kBits));
  const std::vector<std::uint64_t> scalar =
      toeplitz_hash_at(simd::Tier::kScalar, data, kBits, stream, arena);
  for (const simd::Tier tier : toeplitz_tiers()) {
    SCOPED_TRACE(simd::tier_name(tier));
    const std::vector<std::uint64_t> out =
        toeplitz_hash_at(tier, data, kBits, stream, arena);
    EXPECT_EQ(out, scalar);
    for (const std::size_t j : probes) {
      EXPECT_EQ(((out[j / 64] >> (j % 64)) & 1) != 0, ref.bit(j)) << j;
    }
  }
}

// A span that does not hold exactly ceil(bits / 64) words is refused.
TEST(BatchedHash, ToeplitzHashRejectsMisSizedSpans) {
  ScratchArena arena;
  const std::uint64_t words[2] = {1, 0};
  std::uint64_t out = 0;
  EXPECT_THROW(hashing::toeplitz_hash(BitSpan(words, 64), 8, Rng(1), arena,
                                      {&out, 1}),
               std::invalid_argument);
  EXPECT_NO_THROW(hashing::toeplitz_hash(BitSpan({words, 1}, 64), 8, Rng(1),
                                         arena, {&out, 1}));
}

// ---------- BufferPool ----------

TEST(BufferPool, RecyclesReleasedStorage) {
  BufferPool pool;
  BitBuffer a = pool.acquire();
  EXPECT_TRUE(a.empty());
  a.append_bits(0x1234, 16);
  pool.release(std::move(a));
  EXPECT_EQ(pool.acquired(), 1u);
  EXPECT_EQ(pool.recycled(), 0u);
  BitBuffer b = pool.acquire();
  // Recycled buffers come back empty — contents never leak between users.
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(pool.recycled(), 1u);
  pool.release(std::move(b));
}

TEST(BufferPool, PooledBufferLeaseReturnsOnScopeExit) {
  BufferPool pool;
  {
    PooledBuffer lease(pool);
    lease->append_bit(true);
    EXPECT_EQ(lease->size_bits(), 1u);
  }
  EXPECT_EQ(pool.acquired(), 1u);
  {
    PooledBuffer lease(pool);
    EXPECT_TRUE(lease->empty());
  }
  EXPECT_EQ(pool.recycled(), 1u);
}

}  // namespace
}  // namespace setint::util

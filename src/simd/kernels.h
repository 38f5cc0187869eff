// The stable kernel API of the SIMD local-compute engine.
//
// Four kernel families, each dispatched at runtime across the tier
// ladder of simd/dispatch.h (scalar / SSE4.1 / AVX2). Callers never see
// intrinsics; they see plain functions over spans whose results are
// bit-identical on every tier:
//
//   1. hash lanes — array-batched Barrett/Montgomery evaluation for the
//      hash families in src/hashing/ (the pairwise Carter-Wegman pipeline
//      and plain fixed-divisor reduction). Scalar on every tier: one MULX
//      per 64-bit mulhi beats any 32-bit-limb vector emulation by ~2x
//      (docs/PERFORMANCE.md, "Hash lanes").
//   2. adaptive sorted-set intersection — an intersectInt-style oracle
//      (Lemire/Kurz lineage): a size-ratio heuristic selects scalar merge,
//      galloping, a SIMD block-compare kernel, or SIMD galloping. Backs
//      util::set_intersection (the plaintext baseline, result
//      verification, and the per-bucket set-reconcile steps).
//   3. bitmap AND + popcount — StormBitmaps-style bucket-membership
//      kernels over the occupancy bitmaps that util::FlatBuckets CSR
//      tables carry (core/bucket_eq joins them to skip memberless
//      buckets).
//   4. GF(2) Toeplitz product — the equality hash of
//      hashing/toeplitz_hash.h. The scalar tier runs a word loop of
//      AND + popcount parity; from kSse41 up, on parts with PCLMULQDQ, one
//      carry-less multiply per (input word, output word) pair.
//
// Contract shared by every kernel: results equal the scalar reference for
// all inputs (randomized differential suite: tests/simd_test.cc, pinned
// again at bench time by exp_cpu's scalar-vs-SIMD gate). The selection
// heuristic and crossover table are documented in docs/PERFORMANCE.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "simd/dispatch.h"

namespace setint::simd {

// ---------------------------------------------------------------------------
// Family 1: hash lanes
// ---------------------------------------------------------------------------

// Constants for a Lemire-Kaser fixed-divisor reduction: M = ceil(2^128/d)
// split into 64-bit halves, plus d itself. Mirrors hashing::Reducer64
// (which exposes them via magic_hi()/magic_lo()).
struct ReduceConstants {
  std::uint64_t m_hi = 0;
  std::uint64_t m_lo = 0;
  std::uint64_t d = 1;
};

// out[i] = xs[i] mod d, exactly as hashing::Reducer64::mod computes it.
// Requires out.size() >= xs.size().
void reduce_mod_many(const ReduceConstants& c,
                     std::span<const std::uint64_t> xs,
                     std::span<std::uint64_t> out);

// Constants for the full Carter-Wegman pipeline
// ((a*x + b) mod p) mod t with a Montgomery product: everything
// hashing::PairwiseHash precomputes, flattened to PODs so the kernel
// layer needs no hashing types.
struct PairwiseConstants {
  std::uint64_t p = 0;
  std::uint64_t b = 0;
  std::uint64_t t = 0;
  std::uint64_t a_mont = 0;   // a in Montgomery form (R = 2^64)
  std::uint64_t neg_inv = 0;  // -p^-1 mod 2^64 (REDC constant)
  ReduceConstants red_p;      // x mod p
  ReduceConstants red_t;      // v mod t
};

// out[i] = ((a*xs[i] + b) mod p) mod t, bit-identical to the scalar
// PairwiseHash::operator() chain. Requires out.size() >= xs.size().
void pairwise_hash_many(const PairwiseConstants& c,
                        std::span<const std::uint64_t> xs,
                        std::span<std::uint64_t> out);

// ---------------------------------------------------------------------------
// Family 2: adaptive sorted-set intersection
// ---------------------------------------------------------------------------

// The algorithms behind the adaptive oracle. Selection is by size ratio
// (crossover table in docs/PERFORMANCE.md); every algorithm produces the
// identical output on canonical inputs.
enum class IntersectAlgo : int {
  kScalarMerge = 0,  // textbook two-pointer merge
  kGallop = 1,       // per-element exponential + binary search
  kBlock = 2,        // SIMD block-compare (v1-style, 2- or 4-wide)
  kBlockGallop = 3,  // galloping with a SIMD block finish
};

const char* intersect_algo_name(IntersectAlgo algo);

// The heuristic: which algorithm intersect_sorted would run for input
// lengths (na, nb) at `tier`. Exposed so the planner's local-cost model
// and the docs' crossover table stay truthful to the dispatcher.
IntersectAlgo plan_intersect(std::size_t na, std::size_t nb, Tier tier);

// Crossover constants of plan_intersect (documented, tested, and quoted
// by docs/PERFORMANCE.md — change all three places together).
inline constexpr std::size_t kGallopRatio = 50;       // large/small >= 50
inline constexpr std::size_t kBlockGallopRatio = 1000;
inline constexpr std::size_t kBlockMinSmall = 16;     // block needs >= 16

// SIMD compress-stores write whole vectors: `out` must have room for
// min(a.size(), b.size()) + kIntersectPadding elements on EVERY tier (the
// requirement is tier-independent so buffer sizing cannot depend on
// dispatch).
inline constexpr std::size_t kIntersectPadding = 8;

// Intersection of two canonical (strictly increasing) sets into out;
// returns the number of elements written. Output is strictly increasing.
// Throws std::invalid_argument when out is smaller than the padded bound.
std::size_t intersect_sorted(std::span<const std::uint64_t> a,
                             std::span<const std::uint64_t> b,
                             std::span<std::uint64_t> out);

// Forced algorithm + tier entry point for the differential suite and the
// bench lane. `tier` above the detected maximum is clamped; kBlock /
// kBlockGallop at the scalar tier degrade to their scalar counterparts.
std::size_t intersect_sorted_with(IntersectAlgo algo, Tier tier,
                                  std::span<const std::uint64_t> a,
                                  std::span<const std::uint64_t> b,
                                  std::span<std::uint64_t> out);

// ---------------------------------------------------------------------------
// Family 3: bitmap AND + popcount
// ---------------------------------------------------------------------------

// popcount(a & b) over two equal-length word arrays (StormBitmaps-style
// intersect-count). Requires a.size() == b.size().
std::uint64_t bitmap_and_count(std::span<const std::uint64_t> a,
                               std::span<const std::uint64_t> b);

// out[i] = a[i] & b[i]. Requires equal lengths, out.size() >= a.size().
void bitmap_and(std::span<const std::uint64_t> a,
                std::span<const std::uint64_t> b,
                std::span<std::uint64_t> out);

// Bit test helper for occupancy bitmaps (bit i of the word array).
inline bool bitmap_test(std::span<const std::uint64_t> bits, std::size_t i) {
  return (bits[i >> 6] >> (i & 63)) & 1u;
}

// ---------------------------------------------------------------------------
// Family 4: GF(2) Toeplitz product
// ---------------------------------------------------------------------------

// Bit j < bits of the result, stored at bit j % 64 of out[j / 64], is the
// parity of z AND r[j, j + 64 z.size()), where bit t of a word array is
// bit t % 64 of word t / 64. Bits of out at j >= bits are zero. Requires
// bits >= 1, out.size() == ceil(bits / 64), r.size() >= z.size() +
// out.size() and scratch.size() >= r.size() - 1 (scratch is clobbered).
// Runs carry-less multiplies when the active tier is kSse41 or above and
// the CPU reports PCLMULQDQ, the word loop otherwise;
// tests/bitio_property_test.cc pins every tier against a bit-at-a-time
// reference.
void toeplitz_product(std::span<const std::uint64_t> z,
                      std::span<const std::uint64_t> r, std::size_t bits,
                      std::span<std::uint64_t> out,
                      std::span<std::uint64_t> scratch);

}  // namespace setint::simd

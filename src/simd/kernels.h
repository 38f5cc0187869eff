// The kernel API of the local-compute engine: plain functions over spans,
// no intrinsics in sight.
//
//   1. sorted-set intersection — portable scalar merge or galloping,
//      picked by size ratio. Backs util::set_intersection (the plaintext
//      baseline, result verification, and the per-bucket set-reconcile
//      steps).
//   2. GF(2) Toeplitz product — the equality hash of
//      hashing/toeplitz_hash.h and the one kernel that dispatches
//      (simd/dispatch.h): a word loop of AND + popcount parity at
//      kScalar, one carry-less multiply per (input word, output word)
//      pair at kClmul.
//
// Both intersection algorithms and both Toeplitz forms return the same
// results for all inputs (tests/simd_test.cc, tests/bitio_property_test.cc,
// pinned again at bench time by exp_cpu's E-CPU.5 and E-CPU.7 gates).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "simd/dispatch.h"

namespace setint::simd {

// ---------------------------------------------------------------------------
// Sorted-set intersection
// ---------------------------------------------------------------------------

enum class IntersectAlgo : int {
  kMerge = 0,   // textbook two-pointer merge
  kGallop = 1,  // per-element exponential + binary search in the larger set
};

const char* intersect_algo_name(IntersectAlgo algo);

// The algorithm intersect_sorted runs for input lengths (na, nb): gallop
// once max/min >= kGallopRatio, merge otherwise (docs/PERFORMANCE.md).
IntersectAlgo plan_intersect(std::size_t na, std::size_t nb);

inline constexpr std::size_t kGallopRatio = 50;

// Extra output room intersect_sorted needs past min(a.size(), b.size()).
// Zero: no kernel writes past its result.
inline constexpr std::size_t kIntersectPadding = 0;

// Intersection of two canonical (strictly increasing) sets into out;
// returns the number of elements written. Output is strictly increasing.
// Throws std::invalid_argument when out is smaller than
// min(a.size(), b.size()) + kIntersectPadding.
std::size_t intersect_sorted(std::span<const std::uint64_t> a,
                             std::span<const std::uint64_t> b,
                             std::span<std::uint64_t> out);

// intersect_sorted with the algorithm forced (differential suite, bench).
std::size_t intersect_sorted_with(IntersectAlgo algo,
                                  std::span<const std::uint64_t> a,
                                  std::span<const std::uint64_t> b,
                                  std::span<std::uint64_t> out);

// ---------------------------------------------------------------------------
// GF(2) Toeplitz product
// ---------------------------------------------------------------------------

// Bit j < bits of the result, stored at bit j % 64 of out[j / 64], is the
// parity of z AND r[j, j + 64 z.size()), where bit t of a word array is
// bit t % 64 of word t / 64. Bits of out at j >= bits are zero. Requires
// bits >= 1, out.size() == ceil(bits / 64), r.size() >= z.size() +
// out.size() and scratch.size() >= r.size() - 1 (scratch is clobbered).
// Runs carry-less multiplies when the active tier is kClmul, the word
// loop otherwise.
void toeplitz_product(std::span<const std::uint64_t> z,
                      std::span<const std::uint64_t> r, std::size_t bits,
                      std::span<std::uint64_t> out,
                      std::span<std::uint64_t> scratch);

}  // namespace setint::simd

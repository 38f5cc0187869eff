// Per-tier kernel entry points, shared between the dispatch layer
// (kernels.cc) and the tier translation units. Internal to src/simd/ —
// callers use simd/kernels.h.
//
// Each vector TU is compiled with exactly the ISA flags its tier needs
// (see src/CMakeLists.txt); code outside that TU must never call into it
// unless cpuid says the instructions exist. The scalar namespace is the
// reference implementation every other tier is differential-tested
// against (tests/simd_test.cc).
//
// Tier notes: the hash lanes exist only as scalar code. Neither x86
// vector tier has a 64-bit multiply, and emulating one from 32-bit limb
// products lost ~2x to scalar MULX (measured; see docs/PERFORMANCE.md).
// sse41 and avx2 carry the intersect and bitmap kernels; the clmul
// namespace carries the carry-less Toeplitz product both of them use.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/kernels.h"

namespace setint::simd {

namespace scalar {

void reduce_mod_many(const ReduceConstants& c, const std::uint64_t* xs,
                     std::size_t n, std::uint64_t* out);
void pairwise_hash_many(const PairwiseConstants& c, const std::uint64_t* xs,
                        std::size_t n, std::uint64_t* out);

// Two-pointer merge; accepts the operands in either order.
std::size_t intersect_merge(const std::uint64_t* a, std::size_t na,
                            const std::uint64_t* b, std::size_t nb,
                            std::uint64_t* out);

// Exponential + binary search of each element of the SMALL set in the
// large one; callers pass the smaller operand first.
std::size_t intersect_gallop(const std::uint64_t* small, std::size_t ns,
                             const std::uint64_t* large, std::size_t nl,
                             std::uint64_t* out);

std::uint64_t bitmap_and_count(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t n);
void bitmap_and(const std::uint64_t* a, const std::uint64_t* b,
                std::uint64_t* out, std::size_t n);

// The word loop: 64 AND + popcount parity passes per output word.
// `shifted` holds zw + nw - 1 words.
void toeplitz_product(const std::uint64_t* z, std::size_t zw,
                      const std::uint64_t* r, std::size_t bits,
                      std::uint64_t* out, std::size_t nw,
                      std::uint64_t* shifted);

}  // namespace scalar

#if defined(__x86_64__) || defined(_M_X64)

namespace sse41 {

std::size_t intersect_block(const std::uint64_t* a, std::size_t na,
                            const std::uint64_t* b, std::size_t nb,
                            std::uint64_t* out);
std::size_t intersect_block_gallop(const std::uint64_t* small, std::size_t ns,
                                   const std::uint64_t* large, std::size_t nl,
                                   std::uint64_t* out);
std::uint64_t bitmap_and_count(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t n);
void bitmap_and(const std::uint64_t* a, const std::uint64_t* b,
                std::uint64_t* out, std::size_t n);

}  // namespace sse41

namespace avx2 {

std::size_t intersect_block(const std::uint64_t* a, std::size_t na,
                            const std::uint64_t* b, std::size_t nb,
                            std::uint64_t* out);
std::size_t intersect_block_gallop(const std::uint64_t* small, std::size_t ns,
                                   const std::uint64_t* large, std::size_t nl,
                                   std::uint64_t* out);
std::uint64_t bitmap_and_count(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t n);
void bitmap_and(const std::uint64_t* a, const std::uint64_t* b,
                std::uint64_t* out, std::size_t n);

}  // namespace avx2

// PCLMULQDQ (compiled with -mpclmul -msse4.1); entered only when cpuid
// reports both. `zrev` holds zw words.
namespace clmul {

void toeplitz_product(const std::uint64_t* z, std::size_t zw,
                      const std::uint64_t* r, std::size_t bits,
                      std::uint64_t* out, std::size_t nw,
                      std::uint64_t* zrev);

}  // namespace clmul

#endif  // x86-64

}  // namespace setint::simd

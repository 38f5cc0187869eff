// The two forms of the Toeplitz product, shared between the dispatch
// layer (kernels.cc) and their translation units. Internal to src/simd/ —
// callers use simd/kernels.h.
#pragma once

#include <cstddef>
#include <cstdint>

namespace setint::simd {

// The word loop: 64 AND + popcount parity passes per output word.
// `shifted` holds zw + nw - 1 words. The reference the clmul form is
// tested against.
namespace scalar {

void toeplitz_product(const std::uint64_t* z, std::size_t zw,
                      const std::uint64_t* r, std::size_t bits,
                      std::uint64_t* out, std::size_t nw,
                      std::uint64_t* shifted);

}  // namespace scalar

#if defined(__x86_64__) || defined(_M_X64)

// PCLMULQDQ (compiled with -mpclmul -msse4.1); entered only at kClmul,
// which cpuid must report both for. `zrev` holds zw words.
namespace clmul {

void toeplitz_product(const std::uint64_t* z, std::size_t zw,
                      const std::uint64_t* r, std::size_t bits,
                      std::uint64_t* out, std::size_t nw,
                      std::uint64_t* zrev);

}  // namespace clmul

#endif  // x86-64

}  // namespace setint::simd

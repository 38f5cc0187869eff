// Carry-less Toeplitz product. Compiled with -mpclmul -msse4.1 (per-file
// flags in src/CMakeLists.txt); the dispatcher enters it only at tier
// kClmul, which requires cpuid to report both.
//
// With zrev[i] the bit reversal of z[i], bit 63 + s of the carry-less
// product clmul(zrev[i], r[m]) is the parity of z[i] AND (r[m] >> s)
// over the bits that stay inside word m, and bit s - 1 is the parity
// over the bits that spill into word m + 1. Summing over i, with
// P_w = XOR_i clmul(zrev[i], r[i + w]), output word w is bits 63..126 of
// P_w XOR the low 63 bits of P_{w+1} shifted up by one: one multiply per
// (input word, output word) instead of 64 AND + popcount passes.

#if defined(__x86_64__) || defined(_M_X64)

#include <smmintrin.h>
#include <wmmintrin.h>

#include <cstddef>
#include <cstdint>

#include "simd/kernels_internal.h"

namespace setint::simd::clmul {

namespace {

std::uint64_t bit_reverse(std::uint64_t x) {
  x = __builtin_bswap64(x);
  x = ((x >> 4) & 0x0F0F0F0F0F0F0F0Full) | ((x & 0x0F0F0F0F0F0F0F0Full) << 4);
  x = ((x >> 2) & 0x3333333333333333ull) | ((x & 0x3333333333333333ull) << 2);
  x = ((x >> 1) & 0x5555555555555555ull) | ((x & 0x5555555555555555ull) << 1);
  return x;
}

// XOR_i clmul(zrev[i], r[i]) over i < zw, two words per step.
__m128i correlate(const std::uint64_t* zrev, std::size_t zw,
                  const std::uint64_t* r) {
  __m128i acc0 = _mm_setzero_si128();
  __m128i acc1 = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 2 <= zw; i += 2) {
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(zrev + i));
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(r + i));
    acc0 = _mm_xor_si128(acc0, _mm_clmulepi64_si128(a, b, 0x00));
    acc1 = _mm_xor_si128(acc1, _mm_clmulepi64_si128(a, b, 0x11));
  }
  if (i < zw) {
    const __m128i a = _mm_cvtsi64_si128(static_cast<long long>(zrev[i]));
    const __m128i b = _mm_cvtsi64_si128(static_cast<long long>(r[i]));
    acc0 = _mm_xor_si128(acc0, _mm_clmulepi64_si128(a, b, 0x00));
  }
  return _mm_xor_si128(acc0, acc1);
}

std::uint64_t low(__m128i v) {
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(v));
}

std::uint64_t high(__m128i v) {
  return static_cast<std::uint64_t>(_mm_extract_epi64(v, 1));
}

}  // namespace

void toeplitz_product(const std::uint64_t* z, std::size_t zw,
                      const std::uint64_t* r, std::size_t bits,
                      std::uint64_t* out, std::size_t nw,
                      std::uint64_t* zrev) {
  for (std::size_t i = 0; i < zw; ++i) zrev[i] = bit_reverse(z[i]);
  __m128i p = correlate(zrev, zw, r);  // P_0
  for (std::size_t w = 0; w < nw; ++w) {
    const __m128i next = correlate(zrev, zw, r + w + 1);  // P_{w+1}
    out[w] = ((low(p) >> 63) | (high(p) << 1)) ^ (low(next) << 1);
    p = next;
  }
  const unsigned tail = static_cast<unsigned>(bits % 64);
  if (tail != 0) out[nw - 1] &= (std::uint64_t{1} << tail) - 1;
}

}  // namespace setint::simd::clmul

#endif  // x86-64

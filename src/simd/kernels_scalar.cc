// The word-loop form of the Toeplitz product: the portable reference the
// carry-less form (kernels_clmul.cc) is differential-tested against.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "simd/kernels_internal.h"

namespace setint::simd::scalar {

namespace {

// Bits [64 t + s, 64 t + s + 64) of r, for s < 64. The high part shifts
// in two steps so that s = 0 never shifts by 64.
std::uint64_t window(const std::uint64_t* r, std::size_t t, unsigned s) {
  return (r[t] >> s) | ((r[t + 1] << 1) << (63 - s));
}

}  // namespace

void toeplitz_product(const std::uint64_t* z, std::size_t zw,
                      const std::uint64_t* r, std::size_t bits,
                      std::uint64_t* out, std::size_t nw,
                      std::uint64_t* shifted) {
  std::fill_n(out, nw, 0);
  // Row j = 64 w + s reads the window r[j, j + 64 zw) as the words
  // window(r, w + i, s), i < zw.
  constexpr std::size_t kRows = 4;
  const std::size_t shifts = std::min<std::size_t>(64, bits);
  for (unsigned s = 0; s < shifts; ++s) {
    const std::size_t rows = (bits - s + 63) / 64;  // w with 64 w + s < b
    const auto emit = [&](std::size_t w, std::uint64_t acc) {
      out[w] |= static_cast<std::uint64_t>(std::popcount(acc) & 1) << s;
    };
    std::size_t w = 0;
    if (rows >= kRows) {
      // Wide hashes: shift r once for this s, then take kRows rows per
      // pass over z so each load of z serves all of them.
      for (std::size_t t = 0; t < rows + zw - 1; ++t) {
        shifted[t] = window(r, t, s);
      }
      for (; w + kRows <= rows; w += kRows) {
        const std::uint64_t* row = shifted + w;
        std::uint64_t acc[kRows] = {};
        for (std::size_t i = 0; i < zw; ++i) {
          for (std::size_t k = 0; k < kRows; ++k) acc[k] ^= z[i] & row[i + k];
        }
        for (std::size_t k = 0; k < kRows; ++k) emit(w + k, acc[k]);
      }
    }
    // The remaining (for narrow hashes, all) rows read r in place.
    for (; w < rows; ++w) {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < zw; ++i) acc ^= z[i] & window(r, w + i, s);
      emit(w, acc);
    }
  }
}

}  // namespace setint::simd::scalar

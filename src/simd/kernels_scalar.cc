// Portable scalar reference kernels. Every vector tier is
// differential-tested against these; the hash lanes reproduce the exact
// arithmetic of hashing::Reducer64 / hashing::Montgomery64 from raw
// constants so that dispatching here is bit-identical to the pre-SIMD
// code paths.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "simd/kernels_internal.h"

namespace setint::simd::scalar {

namespace {

// a % d via the Lemire-Kaser magic number M = ceil(2^128/d), given as two
// 64-bit halves. Mirrors Reducer64::mod term for term: first M*a mod
// 2^128, then the 128x64 mulhi with d.
inline std::uint64_t reduce_one(const ReduceConstants& c, std::uint64_t a) {
  const unsigned __int128 p0 = static_cast<unsigned __int128>(c.m_lo) * a;
  const std::uint64_t lo = static_cast<std::uint64_t>(p0);
  const std::uint64_t hi =
      static_cast<std::uint64_t>(p0 >> 64) + c.m_hi * a;  // mod 2^64
  const unsigned __int128 bottom =
      (static_cast<unsigned __int128>(lo) * c.d) >> 64;
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(hi) * c.d + bottom) >> 64);
}

// Montgomery REDC, exactly as Montgomery64::redc.
inline std::uint64_t redc(std::uint64_t m, std::uint64_t neg_inv,
                          unsigned __int128 x) {
  const std::uint64_t q = static_cast<std::uint64_t>(x) * neg_inv;
  const std::uint64_t t = static_cast<std::uint64_t>(
      (x + static_cast<unsigned __int128>(q) * m) >> 64);
  return t >= m ? t - m : t;
}

}  // namespace

void reduce_mod_many(const ReduceConstants& c, const std::uint64_t* xs,
                     std::size_t n, std::uint64_t* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = reduce_one(c, xs[i]);
}

void pairwise_hash_many(const PairwiseConstants& c, const std::uint64_t* xs,
                        std::size_t n, std::uint64_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t xr = reduce_one(c.red_p, xs[i]);
    const std::uint64_t ax =
        redc(c.p, c.neg_inv, static_cast<unsigned __int128>(c.a_mont) * xr);
    const std::uint64_t space = c.p - ax;
    const std::uint64_t v = c.b >= space ? c.b - space : ax + c.b;
    out[i] = reduce_one(c.red_t, v);
  }
}

std::size_t intersect_merge(const std::uint64_t* a, std::size_t na,
                            const std::uint64_t* b, std::size_t nb,
                            std::uint64_t* out) {
  std::size_t i = 0, j = 0, c = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out[c++] = a[i];
      ++i;
      ++j;
    }
  }
  return c;
}

namespace {

// First index >= start with arr[index] >= key (n if none): exponential
// probe doubling from start, then binary search inside the bracket.
inline std::size_t gallop_lower_bound(const std::uint64_t* arr, std::size_t n,
                                      std::size_t start, std::uint64_t key) {
  if (start >= n || arr[start] >= key) return start;
  std::size_t offset = 1;
  while (start + offset < n && arr[start + offset] < key) offset <<= 1;
  std::size_t lo = start + (offset >> 1);       // arr[lo] < key
  std::size_t hi = std::min(n, start + offset); // arr[hi] >= key, or hi == n
  while (lo + 1 < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (arr[mid] < key) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

}  // namespace

std::size_t intersect_gallop(const std::uint64_t* small, std::size_t ns,
                             const std::uint64_t* large, std::size_t nl,
                             std::uint64_t* out) {
  std::size_t pos = 0, c = 0;
  for (std::size_t i = 0; i < ns; ++i) {
    pos = gallop_lower_bound(large, nl, pos, small[i]);
    if (pos == nl) break;
    if (large[pos] == small[i]) out[c++] = small[i];
  }
  return c;
}

std::uint64_t bitmap_and_count(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t n) {
  std::uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
    c1 += static_cast<std::uint64_t>(std::popcount(a[i + 1] & b[i + 1]));
    c2 += static_cast<std::uint64_t>(std::popcount(a[i + 2] & b[i + 2]));
    c3 += static_cast<std::uint64_t>(std::popcount(a[i + 3] & b[i + 3]));
  }
  for (; i < n; ++i) {
    c0 += static_cast<std::uint64_t>(std::popcount(a[i] & b[i]));
  }
  return c0 + c1 + c2 + c3;
}

void bitmap_and(const std::uint64_t* a, const std::uint64_t* b,
                std::uint64_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] & b[i];
}

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

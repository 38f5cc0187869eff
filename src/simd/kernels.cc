// The portable intersection algorithms, and the dispatch layer of the
// Toeplitz product: validates arguments and routes each call to the form
// the active tier allows.

#include "simd/kernels.h"

#include <algorithm>
#include <stdexcept>

#include "simd/kernels_internal.h"

namespace setint::simd {

namespace {

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

// First index >= start with arr[index] >= key (n if none): exponential
// probe doubling from start, then binary search inside the bracket.
std::size_t gallop_lower_bound(const std::uint64_t* arr, std::size_t n,
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

// Gallops each element of the SMALL set through the large one.
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

}  // namespace

const char* intersect_algo_name(IntersectAlgo algo) {
  switch (algo) {
    case IntersectAlgo::kMerge:
      return "merge";
    case IntersectAlgo::kGallop:
      return "gallop";
  }
  return "unknown";
}

IntersectAlgo plan_intersect(std::size_t na, std::size_t nb) {
  if (na > nb) std::swap(na, nb);
  if (na == 0) return IntersectAlgo::kMerge;  // nothing to intersect
  return nb / na >= kGallopRatio ? IntersectAlgo::kGallop
                                 : IntersectAlgo::kMerge;
}

std::size_t intersect_sorted(std::span<const std::uint64_t> a,
                             std::span<const std::uint64_t> b,
                             std::span<std::uint64_t> out) {
  return intersect_sorted_with(plan_intersect(a.size(), b.size()), a, b, out);
}

std::size_t intersect_sorted_with(IntersectAlgo algo,
                                  std::span<const std::uint64_t> a,
                                  std::span<const std::uint64_t> b,
                                  std::span<std::uint64_t> out) {
  if (out.size() < std::min(a.size(), b.size()) + kIntersectPadding) {
    throw std::invalid_argument(
        "simd::intersect_sorted: output smaller than min(na, nb)");
  }
  if (algo == IntersectAlgo::kMerge) {
    return intersect_merge(a.data(), a.size(), b.data(), b.size(), out.data());
  }
  // Intersection is symmetric; gallop wants (small, large).
  if (a.size() > b.size()) std::swap(a, b);
  return intersect_gallop(a.data(), a.size(), b.data(), b.size(), out.data());
}

void toeplitz_product(std::span<const std::uint64_t> z,
                      std::span<const std::uint64_t> r, std::size_t bits,
                      std::span<std::uint64_t> out,
                      std::span<std::uint64_t> scratch) {
  if (bits == 0 || out.size() != (bits + 63) / 64 ||
      r.size() < z.size() + out.size() || scratch.size() + 1 < r.size()) {
    throw std::invalid_argument("simd::toeplitz_product: bad span sizes");
  }
#if defined(__x86_64__) || defined(_M_X64)
  if (active_tier() == Tier::kClmul) {
    clmul::toeplitz_product(z.data(), z.size(), r.data(), bits, out.data(),
                            out.size(), scratch.data());
    return;
  }
#endif
  scalar::toeplitz_product(z.data(), z.size(), r.data(), bits, out.data(),
                           out.size(), scratch.data());
}

}  // namespace setint::simd

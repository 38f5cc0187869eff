// Flat CSR bucket tables built by counting sort.
//
// The protocol hot paths (bucket-EQ^k, verification-tree levels, Lemma 3.3
// exchanges) used to materialise vector-of-vector bucket tables: one heap
// allocation per bucket, pointer-chasing on every scan. A FlatBuckets view
// is the CSR equivalent — one offsets array of size num_buckets + 1 and one
// data array of size n, both bump-allocated from the session's ScratchArena,
// filled by a stable counting sort.
//
// Stability is load-bearing for transcript bit-identity: the original code
// appended elements to buckets in input order, and counting sort reproduces
// exactly that per-bucket order, so every downstream encode walks elements
// in the same sequence as before.
//
// Lifetime: the returned spans live in the caller's arena frame (see
// util/arena.h); a FlatBuckets must not outlive the frame it was built in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/arena.h"

namespace setint::util {

struct FlatBuckets {
  // offsets.size() == num_buckets + 1; bucket b occupies
  // data[offsets[b] .. offsets[b + 1]).
  std::span<const std::uint64_t> offsets;
  std::span<const std::uint64_t> data;

  std::size_t num_buckets() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::size_t size() const { return data.size(); }
  std::span<const std::uint64_t> bucket(std::size_t b) const {
    return data.subspan(offsets[b], offsets[b + 1] - offsets[b]);
  }
  std::size_t bucket_size(std::size_t b) const {
    return offsets[b + 1] - offsets[b];
  }
};

// Groups the original indices 0..keys.size() by keys[i] (each key must be
// < num_buckets): bucket b holds, in increasing i order, every index i with
// keys[i] == b.
FlatBuckets build_flat_buckets(std::span<const std::uint64_t> keys,
                               std::size_t num_buckets, ScratchArena& arena);

// Same grouping, but stores values[i] instead of the index i — the common
// case where the bucketed payload is the element itself and no companion
// array is consulted. keys and values must have equal length.
FlatBuckets build_flat_buckets_values(std::span<const std::uint64_t> keys,
                                      std::span<const std::uint64_t> values,
                                      std::size_t num_buckets,
                                      ScratchArena& arena);

}  // namespace setint::util

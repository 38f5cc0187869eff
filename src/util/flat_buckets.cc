#include "util/flat_buckets.h"

#include <cassert>

namespace setint::util {

namespace {

// Shared counting-sort skeleton: payload(i) decides what lands in data.
template <typename Payload>
FlatBuckets build_impl(std::span<const std::uint64_t> keys,
                       std::size_t num_buckets, ScratchArena& arena,
                       Payload payload) {
  const std::span<std::uint64_t> offsets =
      arena.alloc_u64_zeroed(num_buckets + 1);
  for (const std::uint64_t k : keys) {
    assert(k < num_buckets);
    ++offsets[k + 1];
  }
  for (std::size_t b = 1; b <= num_buckets; ++b) offsets[b] += offsets[b - 1];
  const std::span<std::uint64_t> data = arena.alloc_u64(keys.size());
  const std::span<std::uint64_t> cursor = arena.alloc_u64(num_buckets);
  for (std::size_t b = 0; b < num_buckets; ++b) cursor[b] = offsets[b];
  for (std::size_t i = 0; i < keys.size(); ++i) {
    data[cursor[keys[i]]++] = payload(i);
  }
  return FlatBuckets{offsets, data};
}

}  // namespace

FlatBuckets build_flat_buckets(std::span<const std::uint64_t> keys,
                               std::size_t num_buckets, ScratchArena& arena) {
  return build_impl(keys, num_buckets, arena,
                    [](std::size_t i) { return static_cast<std::uint64_t>(i); });
}

FlatBuckets build_flat_buckets_values(std::span<const std::uint64_t> keys,
                                      std::span<const std::uint64_t> values,
                                      std::size_t num_buckets,
                                      ScratchArena& arena) {
  assert(values.size() == keys.size());
  return build_impl(keys, num_buckets, arena,
                    [values](std::size_t i) { return values[i]; });
}

}  // namespace setint::util

#include "util/set_util.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "simd/kernels.h"

namespace setint::util {

bool is_canonical_set(SetView s) {
  for (std::size_t i = 1; i < s.size(); ++i) {
    if (s[i - 1] >= s[i]) return false;
  }
  return true;
}

void validate_set(SetView s, std::uint64_t universe) {
  if (!is_canonical_set(s)) {
    throw std::invalid_argument("set must be strictly increasing");
  }
  if (!s.empty() && s.back() >= universe) {
    throw std::invalid_argument("set element exceeds universe bound");
  }
}

Set set_intersection(SetView a, SetView b) {
  // Merge or gallop by size ratio (src/simd/kernels.h). The result is
  // copied out at exact capacity so long-lived answers do not pin the
  // min(|a|, |b|) bound.
  Set bound(std::min(a.size(), b.size()));
  const std::size_t n = simd::intersect_sorted(a, b, bound);
  return Set(bound.begin(), bound.begin() + static_cast<std::ptrdiff_t>(n));
}

Set set_union(SetView a, SetView b) {
  Set out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

Set set_difference(SetView a, SetView b) {
  Set out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

Set set_symmetric_difference(SetView a, SetView b) {
  Set out;
  std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(out));
  return out;
}

bool set_contains(SetView s, std::uint64_t x) {
  return std::binary_search(s.begin(), s.end(), x);
}

bool is_subset(SetView a, SetView b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

namespace {

template <typename Sink>
void append_set_to(Sink& out, SetView s) {
  out.append_gamma64(s.size());
  if (s.empty()) return;
  out.append_gamma64(s[0]);
  for (std::size_t i = 1; i < s.size(); ++i) {
    out.append_gamma64(s[i] - s[i - 1] - 1);
  }
}

}  // namespace

void append_set(BitBuffer& out, SetView s) { append_set_to(out, s); }

void append_set(BitSpanWriter& out, SetView s) { append_set_to(out, s); }

Set read_set(BitReader& in) {
  const std::uint64_t size = in.read_gamma64();
  // Every element costs at least one gamma bit, so a corrupted size prefix
  // is caught before it drives the reserve below.
  in.expect_at_least(size, 1, "set size");
  Set s;
  s.reserve(size);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < size; ++i) {
    std::uint64_t v;
    if (i == 0) {
      v = in.read_gamma64();
    } else {
      const std::uint64_t gap = in.read_gamma64();
      if (prev == std::numeric_limits<std::uint64_t>::max() ||
          gap > std::numeric_limits<std::uint64_t>::max() - prev - 1) {
        throw std::invalid_argument(
            "decode: set element delta overflows 64 bits (field 'delta')");
      }
      v = prev + gap + 1;
    }
    s.push_back(v);
    prev = v;
  }
  return s;
}

std::size_t set_encoding_cost_bits(SetView s) {
  std::size_t bits = gamma64_cost_bits(s.size());
  if (s.empty()) return bits;
  bits += gamma64_cost_bits(s[0]);
  for (std::size_t i = 1; i < s.size(); ++i) {
    bits += gamma64_cost_bits(s[i] - s[i - 1] - 1);
  }
  return bits;
}

void pack_sets(std::span<const SetView> sets,
               std::span<const std::pair<std::size_t, std::size_t>> groups,
               ScratchArena& arena, std::span<BitSpan> out) {
  if (out.size() != groups.size()) {
    throw std::invalid_argument("pack_sets: output size != group count");
  }
  // Sizes first, so the region is allocated once and exactly.
  std::size_t words = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::size_t bits = 0;
    for (std::size_t i = groups[g].first; i < groups[g].second; ++i) {
      bits += set_encoding_cost_bits(sets[i]);
    }
    out[g].bits = bits;
    words += (bits + 63) / 64;
  }
  const std::span<std::uint64_t> region = arena.alloc_u64_zeroed(words);
  std::size_t offset = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::size_t n = (out[g].bits + 63) / 64;
    BitSpanWriter writer(region.subspan(offset, n));
    for (std::size_t i = groups[g].first; i < groups[g].second; ++i) {
      append_set(writer, sets[i]);
    }
    out[g].words = region.subspan(offset, n);
    offset += n;
  }
}

BitSpan pack_set(SetView s, ScratchArena& arena) {
  const std::pair<std::size_t, std::size_t> group{0, 1};
  BitSpan out;
  pack_sets({&s, 1}, {&group, 1}, arena, {&out, 1});
  return out;
}

namespace {

// Rice parameter shared by encoder and decoder: sized so the average gap
// (~universe / size) has a quotient near 1.
unsigned rice_parameter(std::uint64_t universe, std::uint64_t size) {
  if (size == 0) return 0;
  std::uint64_t ratio = universe / size;
  unsigned b = 0;
  while (ratio > 1 && b < 63) {
    ratio >>= 1;
    ++b;
  }
  return b;
}

}  // namespace

void append_set_rice(BitBuffer& out, SetView s, std::uint64_t universe) {
  out.append_gamma64(s.size());
  if (s.empty()) return;
  const unsigned b = rice_parameter(universe, s.size());
  out.append_rice(s[0], b);
  for (std::size_t i = 1; i < s.size(); ++i) {
    out.append_rice(s[i] - s[i - 1] - 1, b);
  }
}

Set read_set_rice(BitReader& in, std::uint64_t universe) {
  const std::uint64_t size = in.read_gamma64();
  const unsigned b = rice_parameter(universe, size);
  // A Rice codeword costs at least 1 + b bits, bounding any honest size.
  in.expect_at_least(size, 1 + b, "set size");
  Set s;
  s.reserve(size);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < size; ++i) {
    std::uint64_t v;
    if (i == 0) {
      v = in.read_rice(b);
    } else {
      const std::uint64_t gap = in.read_rice(b);
      if (prev == std::numeric_limits<std::uint64_t>::max() ||
          gap > std::numeric_limits<std::uint64_t>::max() - prev - 1) {
        throw std::invalid_argument(
            "decode: set element delta overflows 64 bits (field 'delta')");
      }
      v = prev + gap + 1;
    }
    s.push_back(v);
    prev = v;
  }
  return s;
}

std::size_t set_rice_cost_bits(SetView s, std::uint64_t universe) {
  std::size_t bits = gamma64_cost_bits(s.size());
  if (s.empty()) return bits;
  const unsigned b = rice_parameter(universe, s.size());
  bits += rice_cost_bits(s[0], b);
  for (std::size_t i = 1; i < s.size(); ++i) {
    bits += rice_cost_bits(s[i] - s[i - 1] - 1, b);
  }
  return bits;
}

Set random_set(Rng& rng, std::uint64_t universe, std::size_t size) {
  if (size > universe) {
    throw std::invalid_argument("random_set: size > universe");
  }
  // Floyd's algorithm: uniform without replacement, O(size) samples. The
  // membership test is a flat open-addressing table (linear probing, at
  // most half full). ~0 marks an empty slot: every element is below
  // universe <= 2^64 - 1.
  constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  const std::size_t capacity =
      std::bit_ceil(std::max<std::size_t>(2 * size, 2));
  const int shift = 64 - std::countr_zero(capacity);
  std::vector<std::uint64_t> table(capacity, kEmpty);
  // Inserts x; false when it was already there.
  auto insert = [&](std::uint64_t x) {
    for (std::size_t i = (x * 0x9E3779B97F4A7C15ull) >> shift;;
         i = (i + 1) & (capacity - 1)) {
      if (table[i] == x) return false;
      if (table[i] == kEmpty) {
        table[i] = x;
        return true;
      }
    }
  };
  Set out;
  out.reserve(size);
  for (std::uint64_t j = universe - size; j < universe; ++j) {
    const std::uint64_t t = rng.below(j + 1);
    if (insert(t)) {
      out.push_back(t);
    } else {
      insert(j);  // j exceeds every element drawn so far
      out.push_back(j);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

SetPair random_set_pair(Rng& rng, std::uint64_t universe, std::size_t k,
                        std::size_t shared) {
  if (shared > k) throw std::invalid_argument("random_set_pair: shared > k");
  if (2 * k - shared > universe) {
    throw std::invalid_argument("random_set_pair: universe too small");
  }
  // Draw 2k - shared distinct elements, shuffle them and deal them out:
  // the first `shared` go to both sets, the next k - shared to S only, the
  // rest to T only. A random permutation of the pooled draw keeps the
  // roles uniform. The Fisher-Yates swaps run on pool indices, so one
  // pass over the sorted pool deals every set out already sorted.
  const Set pool = random_set(rng, universe, 2 * k - shared);
  std::vector<std::size_t> order(pool.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  enum Role : std::uint8_t { kBoth, kOnlyS, kOnlyT };
  std::vector<std::uint8_t> role(pool.size());
  for (std::size_t p = 0; p < order.size(); ++p) {
    role[order[p]] = p < shared ? kBoth : p < k ? kOnlyS : kOnlyT;
  }
  SetPair out;
  out.s.reserve(k);
  out.t.reserve(k);
  out.expected_intersection.reserve(shared);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (role[i] != kOnlyT) out.s.push_back(pool[i]);
    if (role[i] != kOnlyS) out.t.push_back(pool[i]);
    if (role[i] == kBoth) out.expected_intersection.push_back(pool[i]);
  }
  return out;
}

MultiSetInstance random_multi_sets(Rng& rng, std::uint64_t universe,
                                   std::size_t players, std::size_t k,
                                   std::size_t shared) {
  if (players == 0) throw std::invalid_argument("random_multi_sets: players == 0");
  if (shared > k) throw std::invalid_argument("random_multi_sets: shared > k");
  if (universe < 2 * k + 1) {
    throw std::invalid_argument("random_multi_sets: universe too small");
  }
  MultiSetInstance out;
  out.expected_intersection = random_set(rng, universe, shared);
  const Set& core = out.expected_intersection;
  out.sets.resize(players);
  for (std::size_t p = 0; p < players; ++p) {
    std::unordered_set<std::uint64_t> fill;
    while (fill.size() < k - shared) {
      const std::uint64_t x = rng.below(universe);
      if (!set_contains(core, x)) fill.insert(x);
    }
    Set s(core.begin(), core.end());
    s.insert(s.end(), fill.begin(), fill.end());
    std::sort(s.begin(), s.end());
    out.sets[p] = std::move(s);
  }
  if (players == 1) {
    out.expected_intersection = out.sets[0];
  } else {
    // Fillers may coincide across all players by chance; evict such
    // elements from player 0 and resample so the planted core is exactly
    // the m-way intersection.
    for (;;) {
      Set inter = out.sets[0];
      for (std::size_t p = 1; p < players; ++p) {
        inter = set_intersection(inter, out.sets[p]);
      }
      Set extras = set_difference(inter, core);
      if (extras.empty()) break;
      Set& s0 = out.sets[0];
      for (std::uint64_t e : extras) {
        s0.erase(std::find(s0.begin(), s0.end(), e));
        for (;;) {
          const std::uint64_t x = rng.below(universe);
          if (!set_contains(core, x) && !set_contains(s0, x)) {
            s0.insert(std::upper_bound(s0.begin(), s0.end(), x), x);
            break;
          }
        }
      }
    }
  }
  return out;
}

}  // namespace setint::util

// Sorted-vector set representation and workload generation.
//
// Throughout the library a "set" is a strictly increasing
// std::vector<uint64_t> of elements drawn from a universe [0, n). SetView
// is the non-owning read-only view protocols take as input.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/arena.h"
#include "util/bitio.h"
#include "util/rng.h"

namespace setint::util {

using SetView = std::span<const std::uint64_t>;
using Set = std::vector<std::uint64_t>;

// True iff strictly increasing (sorted, duplicate-free).
bool is_canonical_set(SetView s);

// Throws std::invalid_argument unless is_canonical_set(s) and every element
// is < universe. Protocol entry points call this on their inputs.
void validate_set(SetView s, std::uint64_t universe);

Set set_intersection(SetView a, SetView b);
Set set_union(SetView a, SetView b);
Set set_difference(SetView a, SetView b);
Set set_symmetric_difference(SetView a, SetView b);
bool set_contains(SetView s, std::uint64_t x);
bool is_subset(SetView a, SetView b);

// Canonical self-delimiting encoding: gamma64(size), gamma64(first
// element), then gamma64 of successive deltas - 1. Injective on canonical
// sets; cost ~ |s| * (2 log2(n/|s|) + O(1)) bits for a spread-out set,
// which is how the trivial D^(1) = O(k log(n/k)) bound is realized.
void append_set(BitBuffer& out, SetView s);
void append_set(BitSpanWriter& out, SetView s);
Set read_set(BitReader& in);

// Exact encoded size in bits of append_set(s).
std::size_t set_encoding_cost_bits(SetView s);

// Encodes groups of sets into one zero-filled arena region: out[g] is the
// append_set encodings of sets[bounds[g], bounds[g + 1]) concatenated
// (bounds are the groups' fence posts, non-decreasing). Every string
// starts on a word boundary and keeps its tail bits zero, so out[g] is
// word for word the BitBuffer the same append_set calls would build.
// Requires out.size() + 1 == bounds.size(); the strings live as long as
// the caller's arena frame.
void pack_sets(std::span<const SetView> sets,
               std::span<const std::size_t> bounds, ScratchArena& arena,
               std::span<BitSpan> out);

// pack_sets for a single set.
BitSpan pack_set(SetView s, ScratchArena& arena);

// Rice-coded set encoding: gamma64(size), then element gaps Rice-coded
// with parameter b = floor(log2(universe / size)). Both parties must know
// `universe` (a protocol constant). Total cost is at most
// |s| * (log2(n/|s|) + 3) bits — within ~1.5 bits/element of the
// information-theoretic optimum log2 C(n, |s|), and roughly half the cost
// of the gamma encoding for spread-out sets. This is what makes the
// deterministic-exchange baseline as strong as possible.
void append_set_rice(BitBuffer& out, SetView s, std::uint64_t universe);
Set read_set_rice(BitReader& in, std::uint64_t universe);
std::size_t set_rice_cost_bits(SetView s, std::uint64_t universe);

// Uniform random canonical set of exactly `size` elements from [0, n).
// Requires size <= n.
Set random_set(Rng& rng, std::uint64_t universe, std::size_t size);

// A pair of sets (S, T), |S| = |T| = k, with exactly `shared` common
// elements, drawn from [0, n). Requires 2*k - shared <= n and shared <= k.
struct SetPair {
  Set s;
  Set t;
  Set expected_intersection;
};
SetPair random_set_pair(Rng& rng, std::uint64_t universe, std::size_t k,
                        std::size_t shared);

// m sets of size k over [0, n) whose m-way intersection is exactly a given
// planted common core of size `shared` (other elements are sampled to avoid
// accidentally enlarging the full intersection).
struct MultiSetInstance {
  std::vector<Set> sets;
  Set expected_intersection;
};
MultiSetInstance random_multi_sets(Rng& rng, std::uint64_t universe,
                                   std::size_t players, std::size_t k,
                                   std::size_t shared);

}  // namespace setint::util

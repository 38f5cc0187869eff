// Toeplitz GF(2) hashing: the hash family behind the equality test of
// Fact 3.5. With z a 64-bit length word followed by the message and r the
// shared bit string read off `stream` (bit t is bit t % 64 of word t / 64),
// hash bit j < b is the inner product mod 2 of z with r[j, j + |z|). Only
// the first ceil((|z| + b) / 64) stream words are drawn, so each party
// hashes using only its own length. Equal messages always hash equal;
// unequal ones collide with probability exactly 2^-b (proof sketch in
// docs/PROTOCOL.md, "The equality hash"). The length word keeps x and
// x||0...0 apart.
//
// The product itself is simd::toeplitz_product (kernel family 4): a word
// loop at the scalar tier, carry-less multiplies from kSse41 up on parts
// with PCLMULQDQ. Every tier returns the same bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/arena.h"
#include "util/bitio.h"
#include "util/rng.h"

namespace setint::hashing {

// Words holding a `bits`-bit hash.
constexpr std::size_t toeplitz_hash_words(std::size_t bits) {
  return (bits + 63) / 64;
}

// b-bit hash of `data` into `out`, which must hold exactly
// toeplitz_hash_words(bits) words: hash bit j lands at bit j % 64 of
// out[j / 64], bits past b are zero. Both parties must pass
// identically-seeded streams. Scratch comes from `arena` and is released
// before returning.
void toeplitz_hash(util::BitSpan data, std::size_t bits, util::Rng stream,
                   util::ScratchArena& arena, std::span<std::uint64_t> out);

// The same hash as one word, for b <= 64.
std::uint64_t toeplitz_hash64(util::BitSpan data, unsigned bits,
                              util::Rng stream, util::ScratchArena& arena);

}  // namespace setint::hashing

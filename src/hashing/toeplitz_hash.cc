#include "hashing/toeplitz_hash.h"

#include <algorithm>
#include <stdexcept>

#include "simd/kernels.h"

namespace setint::hashing {

void toeplitz_hash(util::BitSpan data, std::size_t bits, util::Rng stream,
                   util::ScratchArena& arena, std::span<std::uint64_t> out) {
  if (out.size() != toeplitz_hash_words(bits)) {
    throw std::invalid_argument("toeplitz_hash: output size != hash words");
  }
  const std::size_t nbits = data.bits;
  if (data.words.size() != (nbits + 63) / 64) {
    throw std::invalid_argument("toeplitz_hash: data words != bit length");
  }
  std::fill(out.begin(), out.end(), 0);
  if (bits == 0) return;
  util::ScratchArena::Frame frame(arena);

  // z = length word || data; a BitSpan keeps the bits past its end zero.
  const std::size_t zw = 1 + data.words.size();
  const std::span<std::uint64_t> z = arena.alloc_u64(zw);
  z[0] = nbits;
  std::copy(data.words.begin(), data.words.end(), z.begin() + 1);

  // The last hash bit reads r up to word zw + out.size() - 1. Words past
  // the drawn prefix only ever meet zero bits of z, so they are
  // zero-filled, not drawn.
  const std::size_t rw = zw + out.size();
  const std::size_t drawn = (64 + nbits + bits + 63) / 64;
  const std::span<std::uint64_t> r = arena.alloc_u64(rw);
  for (std::size_t t = 0; t < drawn; ++t) r[t] = stream.next();
  std::fill(r.begin() + static_cast<std::ptrdiff_t>(drawn), r.end(), 0);
  simd::toeplitz_product(z, r, bits, out, arena.alloc_u64(rw - 1));
}

std::uint64_t toeplitz_hash64(util::BitSpan data, unsigned bits,
                              util::Rng stream, util::ScratchArena& arena) {
  if (bits > 64) throw std::invalid_argument("toeplitz_hash64: bits > 64");
  std::uint64_t out = 0;
  toeplitz_hash(data, bits, stream, arena, {&out, toeplitz_hash_words(bits)});
  return out;
}

}  // namespace setint::hashing

#include "hashing/toeplitz_hash.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace setint::hashing {

namespace {

// Bits [64 t + s, 64 t + s + 64) of r, for s < 64. The high part shifts
// in two steps so that s = 0 never shifts by 64.
std::uint64_t window(const std::uint64_t* r, std::size_t t, unsigned s) {
  return (r[t] >> s) | ((r[t + 1] << 1) << (63 - s));
}

}  // namespace

void toeplitz_hash(const util::BitBuffer& data, std::size_t bits,
                   util::Rng stream, util::ScratchArena& arena,
                   std::span<std::uint64_t> out) {
  if (out.size() != toeplitz_hash_words(bits)) {
    throw std::invalid_argument("toeplitz_hash: output size != hash words");
  }
  std::fill(out.begin(), out.end(), 0);
  if (bits == 0) return;
  util::ScratchArena::Frame frame(arena);

  // z = length word || data; BitBuffer keeps the bits past its end zero.
  const std::size_t nbits = data.size_bits();
  const std::size_t zw = 1 + (nbits + 63) / 64;
  const std::span<std::uint64_t> z = arena.alloc_u64(zw);
  z[0] = nbits;
  std::copy_n(data.words().begin(), zw - 1, z.begin() + 1);

  // Row j = 64 w + s reads the window r[j, j + 64 zw) as the words
  // window(r, w + i, s), i < zw; the last row reaches word
  // zw + out.size() - 1 of r. Words past the drawn prefix only ever meet
  // zero bits of z, so they are zero-filled, not drawn.
  const std::size_t rw = zw + out.size();
  const std::size_t drawn = (64 + nbits + bits + 63) / 64;
  const std::span<std::uint64_t> r = arena.alloc_u64(rw);
  for (std::size_t t = 0; t < drawn; ++t) r[t] = stream.next();
  std::fill(r.begin() + static_cast<std::ptrdiff_t>(drawn), r.end(), 0);
  const std::span<std::uint64_t> shifted = arena.alloc_u64(rw - 1);

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
        shifted[t] = window(r.data(), t, s);
      }
      for (; w + kRows <= rows; w += kRows) {
        const std::uint64_t* row = shifted.data() + w;
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
      for (std::size_t i = 0; i < zw; ++i) {
        acc ^= z[i] & window(r.data(), w + i, s);
      }
      emit(w, acc);
    }
  }
}

std::uint64_t toeplitz_hash64(const util::BitBuffer& data, unsigned bits,
                              util::Rng stream, util::ScratchArena& arena) {
  if (bits > 64) throw std::invalid_argument("toeplitz_hash64: bits > 64");
  std::uint64_t out = 0;
  toeplitz_hash(data, bits, stream, arena, {&out, toeplitz_hash_words(bits)});
  return out;
}

}  // namespace setint::hashing

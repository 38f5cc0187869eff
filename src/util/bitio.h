// Bit-level message buffers.
//
// Every bit a protocol transmits is appended to a BitBuffer; the receiving
// side decodes it with a BitReader. Channel accounting (sim/channel.h) uses
// BitBuffer::size_bits() as the ground truth for communication cost, so all
// encoders here are exact about the number of bits they emit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/resource_limits.h"

namespace setint::util {

// Append-only sequence of bits. Bits are stored LSB-first within 64-bit
// words; append_bits() writes `width` low-order bits of `value` so that
// read_bits(width) on the other side returns `value` unchanged. Word
// storage past size_bits() is always zero, so whole-word reads and
// comparisons need no masking.
class BitBuffer {
 public:
  BitBuffer() = default;

  void append_bit(bool b);

  // Appends the `width` low-order bits of `value` (LSB first). Requires
  // width <= 64 and, when width < 64, value < 2^width.
  void append_bits(std::uint64_t value, unsigned width);

  // Appends the entire contents of `other`, bit for bit.
  void append_buffer(const BitBuffer& other);

  // Elias gamma code for v >= 1: floor(log2 v) zeros, then v MSB-first.
  // Costs 2*floor(log2 v) + 1 bits.
  void append_elias_gamma(std::uint64_t v);

  // Gamma code shifted to cover zero: encodes v as gamma(v + 1).
  void append_gamma64(std::uint64_t v) { append_elias_gamma(v + 1); }

  // Rice (Golomb power-of-two) code with parameter b: quotient v >> b in
  // unary, then b remainder bits. Costs (v >> b) + 1 + b bits — the
  // near-entropy-optimal code for values around 2^b, used to ship sorted
  // deltas at ~log2(range/count) + 1.5 bits each.
  void append_rice(std::uint64_t v, unsigned b);

  std::size_t size_bits() const { return size_bits_; }
  bool empty() const { return size_bits_ == 0; }

  // Pre-allocates word storage for `bits` total bits. Never changes
  // contents; encoders that know their output size call this once instead
  // of growing word by word.
  void reserve_bits(std::size_t bits);

  // Drops every bit at index >= new_size_bits (no-op if already shorter).
  // Storage is normalized — the tail word is re-zeroed past the new end —
  // so fingerprints, equality and words() behave as if the buffer had been
  // built at the shorter size. Used by sim::Channel to strip integrity
  // frames in place instead of re-copying the body bit by bit.
  void truncate(std::size_t new_size_bits);

  bool bit(std::size_t i) const;

  // Inverts bit i in place (used by the fault-injection layer,
  // sim/fault.h). Throws std::out_of_range past the end.
  void toggle_bit(std::size_t i);

  const std::vector<std::uint64_t>& words() const { return words_; }

  // 64-bit content fingerprint (not cryptographic); used by tests and by
  // transcript digests. Equal buffers hash equal; differing buffers almost
  // surely differ.
  std::uint64_t fingerprint() const;

  bool operator==(const BitBuffer& other) const;

  void clear();

  // Debug rendering, e.g. "1011" (first-appended bit leftmost).
  std::string to_string() const;

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_bits_ = 0;
};

// Read-only view of a bit string in BitBuffer's layout: `bits` bits
// stored LSB-first in exactly ceil(bits / 64) words, every bit past the
// end zero. A BitBuffer converts to it implicitly, the way std::string
// converts to std::string_view; the words must outlive the view.
struct BitSpan {
  BitSpan() = default;
  BitSpan(std::span<const std::uint64_t> words, std::size_t bits)
      : words(words), bits(bits) {}
  BitSpan(const BitBuffer& buffer)  // NOLINT(google-explicit-constructor)
      : words(buffer.words()), bits(buffer.size_bits()) {}

  std::span<const std::uint64_t> words;
  std::size_t bits = 0;
};

// Appends bits to a caller-sized, zero-filled word span, with the layout
// and codes of BitBuffer: a string written here is word for word the
// BitBuffer the same appends would build. Appending past the span throws
// std::out_of_range.
class BitSpanWriter {
 public:
  explicit BitSpanWriter(std::span<std::uint64_t> words) : words_(words) {}

  // Same contract as BitBuffer::append_bits.
  void append_bits(std::uint64_t value, unsigned width);
  // Same code as BitBuffer::append_gamma64.
  void append_gamma64(std::uint64_t v);

  std::size_t size_bits() const { return size_bits_; }

 private:
  std::span<std::uint64_t> words_;
  std::size_t size_bits_ = 0;
};

// Sequential decoder over a BitBuffer. Reading past the end throws
// std::out_of_range: a protocol that decodes more bits than its peer sent
// is a bug we want loud.
//
// Byzantine hardening (docs/ROBUSTNESS.md): a reader optionally carries a
// core::ResourceLimits (not owned). Decoders charge every length prefix
// against limits->max_decoded_items via expect_at_least/charge_items, so
// a lying count is rejected with core::ResourceLimitError before it
// drives an allocation — the guard sim::Channel::reader() wires in for
// every delivered frame. Unary codes (gamma zero-runs, Rice quotients)
// are capped unconditionally: a crafted all-zeros or all-ones frame
// throws a named std::invalid_argument instead of scanning unboundedly
// or overflowing the decoded width past 64 bits.
class BitReader {
 public:
  explicit BitReader(const BitBuffer& buffer,
                     const core::ResourceLimits* limits = nullptr)
      : buffer_(&buffer), limits_(limits) {}

  bool read_bit();
  std::uint64_t read_bits(unsigned width);
  std::uint64_t read_elias_gamma();
  std::uint64_t read_gamma64() { return read_elias_gamma() - 1; }
  std::uint64_t read_rice(unsigned b);

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return buffer_->size_bits() - pos_; }
  bool exhausted() const { return remaining() == 0; }

  // Guard for length-prefixed decodes: throws std::invalid_argument naming
  // `field` unless at least `items * bits_per_item` bits remain, and
  // charges `items` against the decoded-items budget (charge_items).
  // Decoders call this right after reading a count so that a corrupted or
  // hostile length prefix is rejected BEFORE it drives an allocation or a
  // long decode loop (see docs/ROBUSTNESS.md).
  void expect_at_least(std::uint64_t items, std::uint64_t bits_per_item,
                       const char* field);

  // Adds `items` to this reader's running decoded-item count and throws
  // core::ResourceLimitError naming `field` if the total exceeds
  // limits->max_decoded_items. No-op without limits (or with the cap 0).
  void charge_items(std::uint64_t items, const char* field);

  std::uint64_t items_charged() const { return items_charged_; }
  const core::ResourceLimits* limits() const { return limits_; }

 private:
  // The next min(64, remaining()) bits, first-read bit lowest. Bits past
  // the end read as zero: BitBuffer keeps its storage past size_bits()
  // zeroed.
  std::uint64_t peek64() const;

  const BitBuffer* buffer_;
  const core::ResourceLimits* limits_;
  std::size_t pos_ = 0;
  std::uint64_t items_charged_ = 0;
};

// Capacity-recycling free list of BitBuffers. acquire() returns an empty
// buffer that keeps whatever word storage a previously released buffer
// had grown, so per-message encoding stops hitting the allocator once a
// session reaches steady state. The protocol parties build every message
// in an acquired buffer and sim::TwoPartyRun releases each one after its
// receiver has read it, so a run cycles a couple of buffers whose
// capacity grows to the largest message; the channel's integrity framing
// leases its scratch copy here too. Single-threaded by design: a pool
// belongs to exactly one protocol session (sim::Channel owns one per
// channel); the batch engine gives every session its own channel, so
// pools are never shared across threads.
class BufferPool {
 public:
  // Empty buffer, reusing released storage when available.
  BitBuffer acquire();

  // Returns a buffer's storage to the pool. The buffer's contents are
  // discarded (cleared); only capacity is retained.
  void release(BitBuffer&& buffer);

  // Observability: how many acquires were served from the free list.
  std::uint64_t recycled() const { return recycled_; }
  std::uint64_t acquired() const { return acquired_; }

 private:
  std::vector<BitBuffer> free_;
  std::uint64_t recycled_ = 0;
  std::uint64_t acquired_ = 0;
};

// RAII lease on a pooled buffer: acquires on construction, releases on
// scope exit. `*lease` / `lease->` reach the buffer.
class PooledBuffer {
 public:
  explicit PooledBuffer(BufferPool& pool)
      : pool_(&pool), buffer_(pool.acquire()) {}
  ~PooledBuffer() { pool_->release(std::move(buffer_)); }
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;

  BitBuffer& operator*() { return buffer_; }
  BitBuffer* operator->() { return &buffer_; }

 private:
  BufferPool* pool_;
  BitBuffer buffer_;
};

// Exact cost in bits of the gamma64 encoding of v. Lets callers reason
// about message sizes without building a buffer.
std::size_t gamma64_cost_bits(std::uint64_t v);

// Exact cost in bits of the Rice encoding of v with parameter b.
std::size_t rice_cost_bits(std::uint64_t v, unsigned b);

}  // namespace setint::util

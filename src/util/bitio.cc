#include "util/bitio.h"

#include <algorithm>
#include <bit>

namespace setint::util {

namespace {

// Reverses the order of the low n bits of x (1 <= n <= 64); bits of x at
// index n and above must be zero. Gamma codes carry their value MSB-first
// while words are filled LSB-first, so both directions go through here.
std::uint64_t reverse_low_bits(std::uint64_t x, unsigned n) {
  x = __builtin_bswap64(x);
  x = ((x >> 4) & 0x0F0F0F0F0F0F0F0Full) | ((x & 0x0F0F0F0F0F0F0F0Full) << 4);
  x = ((x >> 2) & 0x3333333333333333ull) | ((x & 0x3333333333333333ull) << 2);
  x = ((x >> 1) & 0x5555555555555555ull) | ((x & 0x5555555555555555ull) << 1);
  return x >> (64 - n);
}

constexpr const char kReadPastEnd[] = "BitReader: read past end of message";

}  // namespace

void BitBuffer::append_bit(bool b) {
  const std::size_t word = size_bits_ / 64;
  const unsigned offset = static_cast<unsigned>(size_bits_ % 64);
  if (word == words_.size()) words_.push_back(0);
  if (b) words_[word] |= (std::uint64_t{1} << offset);
  ++size_bits_;
}

void BitBuffer::append_bits(std::uint64_t value, unsigned width) {
  if (width > 64) throw std::invalid_argument("append_bits: width > 64");
  if (width < 64 && (value >> width) != 0) {
    throw std::invalid_argument("append_bits: value does not fit in width");
  }
  if (width == 0) return;
  // Word-wise write: place the low (64 - offset) bits into the current
  // tail word, spill the rest into a fresh word. Bit layout is identical
  // to `width` append_bit calls — only the allocator traffic changes.
  const std::size_t word = size_bits_ / 64;
  const unsigned offset = static_cast<unsigned>(size_bits_ % 64);
  if (word == words_.size()) words_.push_back(0);
  words_[word] |= value << offset;  // offset < 64 always
  const unsigned placed = 64 - offset;
  if (width > placed) words_.push_back(value >> placed);
  size_bits_ += width;
}

void BitBuffer::append_buffer(const BitBuffer& other) {
  reserve_bits(size_bits_ + other.size_bits_);
  const std::size_t full = other.size_bits_ / 64;
  for (std::size_t i = 0; i < full; ++i) append_bits(other.words_[i], 64);
  const unsigned tail = static_cast<unsigned>(other.size_bits_ % 64);
  if (tail != 0) {
    const std::uint64_t mask = (std::uint64_t{1} << tail) - 1;
    append_bits(other.words_[full] & mask, tail);
  }
}

void BitBuffer::reserve_bits(std::size_t bits) {
  words_.reserve((bits + 63) / 64);
}

void BitBuffer::truncate(std::size_t new_size_bits) {
  if (new_size_bits >= size_bits_) return;
  words_.resize((new_size_bits + 63) / 64);
  const unsigned tail = static_cast<unsigned>(new_size_bits % 64);
  if (tail != 0) {
    // Re-zero the dropped bits so append_bit's OR-in stays correct and
    // word-level consumers (fingerprint, toeplitz_hash) see a normalized tail.
    words_.back() &= (std::uint64_t{1} << tail) - 1;
  }
  size_bits_ = new_size_bits;
}

void BitBuffer::append_elias_gamma(std::uint64_t v) {
  if (v == 0) throw std::invalid_argument("elias gamma requires v >= 1");
  const unsigned n = 63u - static_cast<unsigned>(std::countl_zero(v));
  append_bits(0, n);
  // v MSB-first, n + 1 bits: reversed, so the LSB-first layout emits the
  // top bit first.
  append_bits(reverse_low_bits(v, n + 1), n + 1);
}

void BitSpanWriter::append_bits(std::uint64_t value, unsigned width) {
  if (width > 64) throw std::invalid_argument("append_bits: width > 64");
  if (width < 64 && (value >> width) != 0) {
    throw std::invalid_argument("append_bits: value does not fit in width");
  }
  if (width == 0) return;
  if (size_bits_ + width > 64 * words_.size()) {
    throw std::out_of_range("BitSpanWriter: append past the end of the span");
  }
  const std::size_t word = size_bits_ / 64;
  const unsigned offset = static_cast<unsigned>(size_bits_ % 64);
  words_[word] |= value << offset;
  const unsigned placed = 64 - offset;
  if (width > placed) words_[word + 1] |= value >> placed;
  size_bits_ += width;
}

void BitSpanWriter::append_gamma64(std::uint64_t v) {
  const std::uint64_t g = v + 1;
  if (g == 0) throw std::invalid_argument("elias gamma requires v >= 1");
  const unsigned n = 63u - static_cast<unsigned>(std::countl_zero(g));
  append_bits(0, n);
  append_bits(reverse_low_bits(g, n + 1), n + 1);
}

void BitBuffer::append_rice(std::uint64_t v, unsigned b) {
  if (b > 63) throw std::invalid_argument("rice: parameter > 63");
  const std::uint64_t q = v >> b;
  if (q > (std::uint64_t{1} << 20)) {
    // A quotient this large means the parameter is badly mis-sized for
    // the data; refuse rather than emit megabit unary runs.
    throw std::invalid_argument("rice: quotient too large for parameter");
  }
  std::uint64_t ones = q;
  for (; ones >= 64; ones -= 64) append_bits(~std::uint64_t{0}, 64);
  // The last < 64 ones and the terminating zero in one write.
  append_bits((std::uint64_t{1} << ones) - 1, static_cast<unsigned>(ones) + 1);
  append_bits(v & ((std::uint64_t{1} << b) - 1), b);
}

bool BitBuffer::bit(std::size_t i) const {
  if (i >= size_bits_) throw std::out_of_range("BitBuffer::bit");
  return (words_[i / 64] >> (i % 64)) & 1;
}

void BitBuffer::toggle_bit(std::size_t i) {
  if (i >= size_bits_) throw std::out_of_range("BitBuffer::toggle_bit");
  words_[i / 64] ^= (std::uint64_t{1} << (i % 64));
}

std::uint64_t BitBuffer::fingerprint() const {
  // FNV-1a over words plus the bit length.
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(size_bits_);
  const std::size_t full = size_bits_ / 64;
  for (std::size_t i = 0; i < full; ++i) mix(words_[i]);
  const unsigned tail = static_cast<unsigned>(size_bits_ % 64);
  if (tail != 0) {
    const std::uint64_t mask =
        tail == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << tail) - 1);
    mix(words_[full] & mask);
  }
  return h;
}

bool BitBuffer::operator==(const BitBuffer& other) const {
  // Storage past size_bits_ is zero: append ORs into zeroed words, and
  // truncate/clear re-normalize.
  return size_bits_ == other.size_bits_ && words_ == other.words_;
}

void BitBuffer::clear() {
  words_.clear();
  size_bits_ = 0;
}

std::string BitBuffer::to_string() const {
  std::string s;
  s.reserve(size_bits_);
  for (std::size_t i = 0; i < size_bits_; ++i) s.push_back(bit(i) ? '1' : '0');
  return s;
}

bool BitReader::read_bit() {
  if (pos_ >= buffer_->size_bits()) throw std::out_of_range(kReadPastEnd);
  return buffer_->bit(pos_++);
}

std::uint64_t BitReader::peek64() const {
  if (exhausted()) return 0;
  const std::vector<std::uint64_t>& words = buffer_->words();
  const std::size_t w = pos_ / 64;
  const unsigned offset = static_cast<unsigned>(pos_ % 64);
  std::uint64_t window = words[w] >> offset;
  if (offset != 0 && w + 1 < words.size()) {
    window |= words[w + 1] << (64 - offset);
  }
  return window;
}

std::uint64_t BitReader::read_bits(unsigned width) {
  if (width > 64) throw std::invalid_argument("read_bits: width > 64");
  if (width > remaining()) throw std::out_of_range(kReadPastEnd);
  if (width == 0) return 0;
  const std::uint64_t window = peek64();
  pos_ += width;
  return width == 64 ? window : window & ((std::uint64_t{1} << width) - 1);
}

void BitReader::expect_at_least(std::uint64_t items,
                                std::uint64_t bits_per_item,
                                const char* field) {
  const std::uint64_t per = bits_per_item == 0 ? 1 : bits_per_item;
  if (items > remaining() / per) {
    throw std::invalid_argument(
        std::string("decode: length prefix '") + field + "' = " +
        std::to_string(items) + " needs " + std::to_string(per) +
        " bits/item but only " + std::to_string(remaining()) +
        " bits remain");
  }
  charge_items(items, field);
}

void BitReader::charge_items(std::uint64_t items, const char* field) {
  items_charged_ += items;
  if (limits_ != nullptr && limits_->max_decoded_items > 0 &&
      items_charged_ > limits_->max_decoded_items) {
    throw core::ResourceLimitError(
        std::string("max_decoded_items: field '") + field + "' brings the "
        "decode to " + std::to_string(items_charged_) + " items, cap " +
        std::to_string(limits_->max_decoded_items));
  }
}

std::uint64_t BitReader::read_elias_gamma() {
  const std::uint64_t window = peek64();
  if (window == 0) {
    if (remaining() >= 64) {
      // 64+ leading zeros cannot start a codeword for a 64-bit value; a
      // crafted all-zeros frame lands here instead of widening past 64.
      throw std::invalid_argument(
          "decode: gamma zero-run exceeds 63 bits (field 'gamma')");
    }
    throw std::out_of_range(kReadPastEnd);
  }
  const unsigned n = static_cast<unsigned>(std::countr_zero(window));
  pos_ += n + 1;  // the zero run and the leading 1 bit
  if (n == 0) return 1;
  return (std::uint64_t{1} << n) | reverse_low_bits(read_bits(n), n);
}

std::uint64_t BitReader::read_rice(unsigned b) {
  if (b > 63) throw std::invalid_argument("rice: parameter > 63");
  // Largest quotient whose value q << b still fits in 64 bits; anything
  // beyond is unencodable, so a longer unary run is a crafted frame.
  // The encoder's 2^20 cap bounds the scan as well.
  const std::uint64_t max_q =
      std::min(~std::uint64_t{0} >> b, std::uint64_t{1} << 20);
  std::uint64_t q = 0;
  while (true) {
    const std::size_t avail = std::min<std::size_t>(remaining(), 64);
    if (avail == 0) throw std::out_of_range(kReadPastEnd);
    // peek64 zero-fills past the end, so the run never counts beyond it.
    const unsigned ones = static_cast<unsigned>(std::countr_one(peek64()));
    q += ones;
    if (q > max_q) {
      throw std::invalid_argument(
          "decode: rice unary quotient overflows the 64-bit value "
          "(field 'rice')");
    }
    pos_ += ones;
    if (ones < avail) break;
  }
  ++pos_;  // the terminating zero
  return (q << b) | read_bits(b);
}

BitBuffer BufferPool::acquire() {
  ++acquired_;
  if (free_.empty()) return BitBuffer{};
  ++recycled_;
  BitBuffer b = std::move(free_.back());
  free_.pop_back();
  return b;
}

void BufferPool::release(BitBuffer&& buffer) {
  buffer.clear();  // retains word capacity
  free_.push_back(std::move(buffer));
}

std::size_t rice_cost_bits(std::uint64_t v, unsigned b) {
  return static_cast<std::size_t>(v >> b) + 1 + b;
}

std::size_t gamma64_cost_bits(std::uint64_t v) {
  const std::uint64_t g = v + 1;
  const unsigned n = 63u - static_cast<unsigned>(std::countl_zero(g));
  return 2 * static_cast<std::size_t>(n) + 1;
}

}  // namespace setint::util

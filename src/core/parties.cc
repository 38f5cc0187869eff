#include "core/parties.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/basic_intersection.h"
#include "hashing/toeplitz_hash.h"
#include "util/arena.h"
#include "util/iterated_log.h"

namespace setint::core {

namespace {

constexpr std::string_view kHashExchange = "hash_exchange";

// Width of word w of a `bits`-bit equality hash on the wire.
unsigned chunk_width(std::size_t bits, std::size_t w) {
  return static_cast<unsigned>(std::min<std::size_t>(64, bits - 64 * w));
}

unsigned image_width(const hashing::PairwiseHash& h) {
  return util::ceil_log2(std::max<std::uint64_t>(h.range(), 2));
}

// h of every element of `set`, in input order, in arena scratch. The raw
// array doubles as the lookup table for the final filter; its sorted-unique
// copy is the image sent on the wire.
std::span<std::uint64_t> hash_all(util::SetView set,
                                  const hashing::PairwiseHash& h,
                                  util::ScratchArena& arena) {
  const std::span<std::uint64_t> vals = arena.alloc_u64(set.size());
  h.hash_many(set, vals);
  return vals;
}

// Fixed-width coded image (the paper's O(m log m) accounting).
void append_image(util::BitBuffer& out, std::span<const std::uint64_t> vals,
                  unsigned width, util::ScratchArena& arena) {
  util::ScratchArena::Frame scratch_frame(arena);
  const std::span<std::uint64_t> image = arena.alloc_u64(vals.size());
  std::copy(vals.begin(), vals.end(), image.begin());
  std::sort(image.begin(), image.end());
  const auto last = std::unique(image.begin(), image.end());
  out.append_gamma64(static_cast<std::uint64_t>(last - image.begin()));
  for (auto it = image.begin(); it != last; ++it) out.append_bits(*it, width);
}

// Bits of the image of `count` hashed values: exact unless two of them
// collide, which only shortens the image.
std::size_t image_bound_bits(std::size_t count, unsigned width) {
  return util::gamma64_cost_bits(count) + count * width;
}

// Images are sorted-unique by construction; the binary searches in
// filter_own rely on it, so anything else is rejected.
util::SetView read_image(util::BitReader& in, unsigned width,
                         util::ScratchArena& arena) {
  const std::uint64_t count = in.read_gamma64();
  in.expect_at_least(count, width, "image count");
  const std::span<std::uint64_t> image = arena.alloc_u64(count);
  for (auto& v : image) v = in.read_bits(width);
  if (!util::is_canonical_set(image)) {
    throw std::invalid_argument(
        "decode: hashed image not strictly increasing (field 'image')");
  }
  return image;
}

// Writes the own elements whose hash appears in the peer's image to the
// front of `out` (at least own.size() words); returns how many.
std::size_t filter_own(util::SetView own, std::span<const std::uint64_t> vals,
                       util::SetView peer_image, std::span<std::uint64_t> out) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < own.size(); ++i) {
    if (util::set_contains(peer_image, vals[i])) out[n++] = own[i];
  }
  return n;
}

}  // namespace

// ---------- equality ----------

EqualityParty::EqualityParty(const sim::SharedRandomness& shared,
                             std::uint64_t nonce,
                             std::span<const util::BitSpan> strings,
                             std::size_t bits, std::vector<bool>& verdicts,
                             sim::PartyEnv env)
    : shared_(shared), nonce_(nonce), strings_(strings), bits_(bits),
      verdicts_(verdicts), env_(env) {}

std::optional<sim::Outgoing> EqualityHasher::start() {
  sim::Outgoing msg{env_.pool->acquire(), "eq-hashes"};
  msg.bits.reserve_bits(strings_.size() * bits_);
  util::ScratchArena::Frame scratch_frame(*env_.arena);
  const std::span<std::uint64_t> hash =
      env_.arena->alloc_u64(hashing::toeplitz_hash_words(bits_));
  for (std::size_t i = 0; i < strings_.size(); ++i) {
    hashing::toeplitz_hash(strings_[i], bits_,
                           shared_.stream("eq", nonce_, i), *env_.arena, hash);
    for (std::size_t w = 0; w < hash.size(); ++w) {
      msg.bits.append_bits(hash[w], chunk_width(bits_, w));
    }
  }
  verdicts_.resize(strings_.size());
  strings_ = {};  // never read again
  return msg;
}

std::optional<sim::Outgoing> EqualityHasher::on_message(
    const util::BitBuffer& message) {
  util::BitReader reader = env_.reader(message);
  reader.expect_at_least(verdicts_.size(), 1, "eq verdicts");
  for (std::size_t i = 0; i < verdicts_.size(); ++i) {
    verdicts_[i] = reader.read_bit();
  }
  done_ = true;
  return std::nullopt;
}

std::optional<sim::Outgoing> EqualityVerifier::on_message(
    const util::BitBuffer& message) {
  const std::size_t n = strings_.size();
  util::BitReader reader = env_.reader(message);
  // All n hashes must be present up front: a short (truncated or crafted)
  // frame is rejected by name instead of failing mid-comparison.
  reader.expect_at_least(n, bits_, "eq hashes");
  sim::Outgoing reply{env_.pool->acquire(), "eq-verdicts"};
  reply.bits.reserve_bits(n);
  verdicts_.resize(n);
  util::ScratchArena::Frame scratch_frame(*env_.arena);
  const std::span<std::uint64_t> expected =
      env_.arena->alloc_u64(hashing::toeplitz_hash_words(bits_));
  for (std::size_t i = 0; i < n; ++i) {
    hashing::toeplitz_hash(strings_[i], bits_,
                           shared_.stream("eq", nonce_, i), *env_.arena,
                           expected);
    bool match = true;
    for (std::size_t w = 0; w < expected.size(); ++w) {
      if (reader.read_bits(chunk_width(bits_, w)) != expected[w]) {
        match = false;
      }
    }
    verdicts_[i] = match;
    reply.bits.append_bit(match);
  }
  strings_ = {};  // never read again
  done_ = true;
  return reply;
}

// ---------- one-round hashing ----------

namespace {

// Range N = max(2^16, k^strength): the 2^16 floor keeps tiny-k instances
// reliable at negligible cost.
hashing::PairwiseHash one_round_hash_function(
    const sim::SharedRandomness& shared, std::uint64_t nonce,
    std::uint64_t universe, std::uint64_t k_bound, int strength) {
  if (strength < 3) throw std::invalid_argument("one_round_hash: strength < 3");
  const std::uint64_t k = std::max<std::uint64_t>(k_bound, 2);
  const double range =
      std::pow(static_cast<double>(k), static_cast<double>(strength));
  if (range > 0x1p62) {
    throw std::invalid_argument("one_round_hash: range overflow");
  }
  const std::uint64_t big_n =
      std::max<std::uint64_t>(1u << 16, static_cast<std::uint64_t>(range));
  util::Rng stream = shared.stream("one-round-hash", nonce);
  return hashing::PairwiseHash::sample(stream, universe, big_n);
}

}  // namespace

OneRoundHashParty::OneRoundHashParty(const sim::SharedRandomness& shared,
                                     std::uint64_t nonce,
                                     std::uint64_t universe,
                                     util::SetView input,
                                     std::uint64_t k_bound, int strength,
                                     sim::PartyEnv env)
    : input_(input),
      hash_(one_round_hash_function(shared, nonce, universe, k_bound,
                                    strength)),
      env_(env) {}

sim::Outgoing OneRoundHashParty::image_message(std::string_view label) const {
  const unsigned width = image_width(hash_);
  sim::Outgoing msg{env_.pool->acquire(), label, kHashExchange};
  msg.bits.reserve_bits(image_bound_bits(vals_.size(), width));
  append_image(msg.bits, vals_, width, *env_.arena);
  return msg;
}

void OneRoundHashParty::filter_by_peer_image(const util::BitBuffer& message) {
  util::BitReader reader = env_.reader(message);
  const util::SetView peer_image =
      read_image(reader, image_width(hash_), *env_.arena);
  candidates_.resize(input_.size());
  candidates_.resize(filter_own(input_, vals_, peer_image, candidates_));
  done_ = true;
}

std::optional<sim::Outgoing> OneRoundHashAlice::start() {
  vals_ = hash_all(input_, hash_, *env_.arena);
  return image_message("hash-image-a");
}

std::optional<sim::Outgoing> OneRoundHashAlice::on_message(
    const util::BitBuffer& message) {
  filter_by_peer_image(message);
  return std::nullopt;
}

std::optional<sim::Outgoing> OneRoundHashBob::on_message(
    const util::BitBuffer& message) {
  vals_ = hash_all(input_, hash_, *env_.arena);
  filter_by_peer_image(message);
  return image_message("hash-image-b");
}

// ---------- Basic-Intersection ----------

BasicIntersectionParty::BasicIntersectionParty(
    const sim::SharedRandomness& shared, std::uint64_t nonce,
    std::uint64_t universe, std::span<const util::SetView> sets,
    double target_failure, sim::PartyEnv env, sim::PartyId self,
    sim::PartyId opener)
    : shared_(shared), universe_(universe), env_(env), self_(self) {
  restart(nonce, sets, target_failure, opener);
}

void BasicIntersectionParty::restart(std::uint64_t nonce,
                                     std::span<const util::SetView> sets,
                                     double target_failure,
                                     sim::PartyId opener) {
  nonce_ = nonce;
  opener_ = opener;
  sets_ = sets;
  target_failure_ = target_failure;
  instances_.assign(sets.size(), Instance{});
  sizes_known_ = false;
  done_ = false;
}

sim::Outgoing BasicIntersectionParty::sizes_message(bool boundary) const {
  std::size_t bits = 0;
  for (util::SetView set : sets_) bits += util::gamma64_cost_bits(set.size());
  sim::Outgoing msg{env_.pool->acquire(),
                    self_ == sim::PartyId::kAlice ? "bi-sizes-a" : "bi-sizes-b",
                    "size_exchange", boundary};
  msg.bits.reserve_bits(bits);
  for (util::SetView set : sets_) msg.bits.append_gamma64(set.size());
  return msg;
}

void BasicIntersectionParty::read_peer_sizes(const util::BitBuffer& message) {
  util::BitReader reader = env_.reader(message);
  for (std::size_t j = 0; j < sets_.size(); ++j) {
    Instance& inst = instances_[j];
    const std::uint64_t peer_size = reader.read_gamma64();
    // Either side empty: the intersection is certainly empty, and both
    // parties know it from the sizes, so no hash bits flow.
    if (sets_[j].empty() || peer_size == 0) continue;
    util::Rng stream = shared_.stream("basic-intersection", nonce_, j);
    const auto hash = hashing::PairwiseHash::sample(
        stream, universe_,
        basic_intersection_range(sets_[j].size() + peer_size,
                                 target_failure_));
    inst.width = image_width(hash);
    inst.vals = hash_all(sets_[j], hash, *env_.arena);
  }
  if (!reader.exhausted()) {
    throw std::invalid_argument(
        "decode: trailing bits after the sizes (field 'sizes')");
  }
  sizes_known_ = true;
}

sim::Outgoing BasicIntersectionParty::images_message(bool boundary) const {
  std::size_t bits = 0;
  for (const Instance& inst : instances_) {
    if (inst.width != 0) bits += image_bound_bits(inst.vals.size(), inst.width);
  }
  sim::Outgoing msg{
      env_.pool->acquire(),
      self_ == sim::PartyId::kAlice ? "bi-hashes-a" : "bi-hashes-b",
      kHashExchange, boundary};
  msg.bits.reserve_bits(bits);
  for (const Instance& inst : instances_) {
    if (inst.width == 0) continue;
    append_image(msg.bits, inst.vals, inst.width, *env_.arena);
  }
  return msg;
}

void BasicIntersectionParty::filter_by_peer_images(
    const util::BitBuffer& message) {
  util::BitReader reader = env_.reader(message);
  for (std::size_t j = 0; j < sets_.size(); ++j) {
    Instance& inst = instances_[j];
    if (inst.width == 0) continue;  // candidate stays empty
    // Room for every own element, taken before the image's scratch frame
    // so the candidate outlives it.
    const std::span<std::uint64_t> out = env_.arena->alloc_u64(sets_[j].size());
    util::ScratchArena::Frame scratch_frame(*env_.arena);
    const util::SetView peer_image =
        read_image(reader, inst.width, *env_.arena);
    inst.candidate =
        out.first(filter_own(sets_[j], inst.vals, peer_image, out));
  }
  done_ = true;
}

std::optional<sim::Outgoing> BasicIntersectionParty::start() {
  if (!opens()) return std::nullopt;
  return sizes_message(/*boundary=*/true);
}

std::optional<sim::Outgoing> BasicIntersectionParty::on_message(
    const util::BitBuffer& message) {
  if (!sizes_known_) {
    read_peer_sizes(message);
    // The responder's images follow in its turn.
    if (opens()) return std::nullopt;
    sim::Outgoing sizes = sizes_message(/*boundary=*/false);
    sizes.keep_floor = true;
    return sizes;
  }
  filter_by_peer_images(message);
  if (!opens()) return std::nullopt;
  return images_message(/*boundary=*/false);
}

std::optional<sim::Outgoing> BasicIntersectionParty::next() {
  if (opens()) return std::nullopt;
  return images_message(/*boundary=*/true);
}

}  // namespace setint::core

#include "apps/reconcile.h"

#include <algorithm>

#include "eq/equality.h"
#include "hashing/pairwise.h"
#include "util/arena.h"
#include "util/bitio.h"
#include "util/iterated_log.h"
#include "util/rng.h"

namespace setint::apps {

namespace {

// Positions (indices into `reference`) of the elements also in `subset`,
// gamma-delta coded — O(|subset| log |reference|) bits.
util::BitBuffer encode_positions(util::SetView reference,
                                 util::SetView subset) {
  util::Set positions;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (util::set_contains(subset, reference[i])) positions.push_back(i);
  }
  util::BitBuffer out;
  util::append_set(out, positions);
  return out;
}

util::Set decode_positions(util::BitReader& reader, util::SetView reference) {
  const util::Set positions = util::read_set(reader);
  util::Set out;
  out.reserve(positions.size());
  for (std::uint64_t p : positions) {
    if (p >= reference.size()) {
      throw std::invalid_argument(
          "decode: reconcile position " + std::to_string(p) +
          " out of range (field 'position')");
    }
    out.push_back(reference[p]);
  }
  return out;
}

util::Set image_of(util::SetView elements, const hashing::PairwiseHash& h) {
  util::Set image;
  image.reserve(elements.size());
  for (std::uint64_t x : elements) image.push_back(h(x));
  std::sort(image.begin(), image.end());
  image.erase(std::unique(image.begin(), image.end()), image.end());
  return image;
}

util::BitBuffer encode_image(const util::Set& image, unsigned width) {
  util::BitBuffer out;
  out.append_gamma64(image.size());
  for (std::uint64_t v : image) out.append_bits(v, width);
  return out;
}

util::Set decode_image(util::BitReader& reader, unsigned width) {
  const std::uint64_t count = reader.read_gamma64();
  reader.expect_at_least(count, width, "image count");
  util::Set image(count);
  for (auto& v : image) v = reader.read_bits(width);
  return image;
}

// Bitmask over `image` entries: which hash values occur in `own` under h.
util::BitBuffer match_bitmask(util::SetView own,
                              const hashing::PairwiseHash& h,
                              const util::Set& image) {
  util::Set own_image = image_of(own, h);
  util::BitBuffer mask;
  for (std::uint64_t v : image) {
    mask.append_bit(util::set_contains(own_image, v));
  }
  return mask;
}

// Entries of `image` whose bitmask bit is set.
util::Set matched_entries(const util::BitBuffer& mask,
                          const util::Set& image) {
  util::Set out;
  util::BitReader reader(mask);
  for (std::uint64_t v : image) {
    if (reader.read_bit()) out.push_back(v);
  }
  return out;
}

util::Set members_matching_image(util::SetView own,
                                 const hashing::PairwiseHash& h,
                                 util::SetView image) {
  util::Set out;
  for (std::uint64_t x : own) {
    if (util::set_contains(image, h(x))) out.push_back(x);
  }
  return out;
}

util::Set assemble(const util::Set& surviving, const util::Set& part_a,
                   const util::Set& part_b) {
  util::Set view = surviving;
  view.insert(view.end(), part_a.begin(), part_a.end());
  view.insert(view.end(), part_b.begin(), part_b.end());
  std::sort(view.begin(), view.end());
  view.erase(std::unique(view.begin(), view.end()), view.end());
  return view;
}

}  // namespace

ReconcileResult reconcile_intersection(
    sim::Channel& channel, const sim::SharedRandomness& shared,
    std::uint64_t nonce, std::uint64_t universe, util::SetView s_new,
    util::SetView t_new, util::SetView old_intersection,
    const Delta& alice_delta, const Delta& bob_delta,
    const core::VerificationTreeParams& fallback_params) {
  util::validate_set(s_new, universe);
  util::validate_set(t_new, universe);
  util::validate_set(old_intersection, universe);

  // Step 1 (2 rounds): each side reports which old-intersection elements
  // it removed, as positions into the shared old_intersection.
  const util::BitBuffer a_removed_msg = channel.send(
      sim::PartyId::kAlice,
      encode_positions(old_intersection, alice_delta.removed), "rec-rem-a");
  const util::BitBuffer b_removed_msg = channel.send(
      sim::PartyId::kBob,
      encode_positions(old_intersection, bob_delta.removed), "rec-rem-b");
  util::BitReader a_removed_reader = channel.reader(a_removed_msg);
  const util::Set removed_a =
      decode_positions(a_removed_reader, old_intersection);
  util::BitReader b_removed_reader = channel.reader(b_removed_msg);
  const util::Set removed_b =
      decode_positions(b_removed_reader, old_intersection);
  const util::Set surviving = util::set_difference(
      util::set_difference(old_intersection, removed_a), removed_b);

  // Shared hash for the insert exchange, range sized so collisions across
  // all (insert, peer-element) pairs are ~2^-12.
  const std::uint64_t k =
      std::max<std::uint64_t>({s_new.size(), t_new.size(), 2});
  const std::uint64_t add_total =
      alice_delta.added.size() + bob_delta.added.size() + 2;
  const double range_d =
      std::min(0x1p62, static_cast<double>(add_total) *
                           static_cast<double>(k) * 4096.0);
  const std::uint64_t range =
      std::max<std::uint64_t>(1u << 16, static_cast<std::uint64_t>(range_d));
  util::Rng stream = shared.stream("reconcile", nonce);
  const auto h = hashing::PairwiseHash::sample(stream, universe, range);
  const unsigned width = util::ceil_log2(range);

  // Step 2 (3 rounds): insert images + match bitmasks.
  //   A -> B : image of Alice's inserts
  //   B -> A : image of Bob's inserts, plus the bitmask saying which of
  //            Alice's insert-hashes occur in T'
  //   A -> B : the bitmask for Bob's insert-hashes against S'
  const util::Set a_image = image_of(alice_delta.added, h);
  const util::BitBuffer a_img_delivered = channel.send(
      sim::PartyId::kAlice, encode_image(a_image, width), "rec-add-a");
  util::BitReader a_img_reader = channel.reader(a_img_delivered);
  const util::Set a_image_at_bob = decode_image(a_img_reader, width);

  const util::Set b_image = image_of(bob_delta.added, h);
  util::BitBuffer b_reply = encode_image(b_image, width);
  b_reply.append_buffer(match_bitmask(t_new, h, a_image_at_bob));
  const util::BitBuffer b_delivered =
      channel.send(sim::PartyId::kBob, std::move(b_reply), "rec-add-b");
  util::BitReader b_reader = channel.reader(b_delivered);
  const util::Set b_image_at_alice = decode_image(b_reader, width);
  util::BitBuffer a_match_mask;
  for (std::size_t i = 0; i < a_image.size(); ++i) {
    a_match_mask.append_bit(b_reader.read_bit());
  }

  const util::BitBuffer b_mask_delivered = channel.send(
      sim::PartyId::kAlice, match_bitmask(s_new, h, b_image_at_alice),
      "rec-mask-b");

  // Alice's view: survivors, her inserts whose hash Bob confirmed, and
  // her elements matching Bob's insert image.
  const util::Set a_confirmed = matched_entries(a_match_mask, a_image);
  const util::Set alice_view = assemble(
      surviving, members_matching_image(alice_delta.added, h, a_confirmed),
      members_matching_image(s_new, h, b_image_at_alice));

  // Bob's view, mirror-image.
  const util::Set b_confirmed = matched_entries(b_mask_delivered, b_image);
  const util::Set bob_view = assemble(
      surviving, members_matching_image(bob_delta.added, h, b_confirmed),
      members_matching_image(t_new, h, a_image_at_bob));

  // Step 3 (2 rounds): constant-size certificate. A hash collision puts
  // DIFFERENT elements into the two views, so equal views are correct up
  // to the 2^-64 certificate error.
  bool certified = false;
  {
    util::ScratchArena::Frame certificate_frame(channel.scratch());
    certified = eq::equality_test(
        channel, shared, util::mix64(nonce, 0xCE7),
        util::pack_set(alice_view, channel.scratch()),
        util::pack_set(bob_view, channel.scratch()), 64);
  }

  ReconcileResult result;
  if (certified) {
    result.intersection = alice_view;
    return result;
  }
  // Fallback: certificate failed (hash collision or stale
  // old_intersection) — run the full protocol for an exact repair.
  result.used_fallback = true;
  const core::IntersectionOutput full = core::verification_tree_intersection(
      channel, shared, util::mix64(nonce, 0xFA11), universe, s_new, t_new,
      fallback_params);
  result.intersection = full.alice;
  return result;
}

}  // namespace setint::apps

#include "reductions/eqk_to_int.h"

#include <algorithm>
#include <stdexcept>

#include "hashing/toeplitz_hash.h"
#include "util/iterated_log.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint::reductions {

std::vector<bool> eqk_via_intersection(
    sim::Channel& channel, const sim::SharedRandomness& shared,
    std::uint64_t nonce, const std::vector<util::BitBuffer>& xs,
    const std::vector<util::BitBuffer>& ys,
    const core::VerificationTreeParams& params) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("eqk_via_intersection: size mismatch");
  }
  const std::size_t k = xs.size();
  if (k == 0) return {};

  // Hash width: 2 log2 k + 8 bits pushes the union-bound collision error
  // below 1/(256 k); keep the packed (index, hash) element within 63 bits.
  const unsigned index_bits = util::ceil_log2(std::max<std::uint64_t>(k, 2));
  const unsigned hash_bits = std::min<unsigned>(2 * index_bits + 8,
                                                63 - index_bits);
  if (hash_bits == 0) {
    throw std::invalid_argument("eqk_via_intersection: k too large to pack");
  }
  const std::uint64_t universe = std::uint64_t{1}
                                 << (index_bits + hash_bits);

  auto build_set = [&](const std::vector<util::BitBuffer>& side) {
    util::Set out;
    out.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint64_t h = hashing::toeplitz_hash64(
          side[i], hash_bits, shared.stream("eqk-h", nonce, i),
          channel.scratch());
      out.push_back((static_cast<std::uint64_t>(i) << hash_bits) | h);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const util::Set sa = build_set(xs);
  const util::Set tb = build_set(ys);

  const core::IntersectionOutput out = core::verification_tree_intersection(
      channel, shared, util::mix64(nonce, 0xE02), universe, sa, tb, params);

  // Instance i is "equal" iff its packed element survived on both sides.
  std::vector<bool> equal(k, false);
  const util::Set agreed = util::set_intersection(out.alice, out.bob);
  for (std::uint64_t e : agreed) {
    equal[static_cast<std::size_t>(e >> hash_bits)] = true;
  }
  return equal;
}

}  // namespace setint::reductions

// Amortized equality: EQ^K with O(K) expected total communication.
//
// Stand-in for the Feder-Kushilevitz-Naor-Nisan protocol the paper cites
// as Theorem 3.2 (see DESIGN.md section 3 for the substitution argument).
// Construction: a binary merge tree over the K instances. At level j the
// surviving instances are grouped into blocks of ~2^j; each block's
// concatenated contents are compared with a beta_j = Theta(2^(j/2))-bit
// Toeplitz hash. A mismatching block certainly contains an unequal instance
// and is binary-searched down; a singleton mismatch resolves that instance
// as "not equal" (exactly, one-sided). Blocks that pass are merged
// pairwise and move up a level.
//
// Guarantees (matching or beating Theorem 3.2):
//   * communication: sum_j (K / 2^j) * beta_j = O(K) expected;
//   * error: an unequal instance is declared equal only if it passes
//     sum_j beta_j = Omega(sqrt(K)) independent hash bits -> 2^-Omega(sqrt K);
//   * equal instances are never declared unequal (one-sided);
//   * rounds: O(log^2 K) worst case, within the theorem's O(sqrt K).
#pragma once

#include <cstdint>
#include <vector>

#include "core/checkpoint.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "util/bitio.h"

namespace setint::eq {

struct AmortizedEqStats {
  std::uint64_t levels = 0;
  std::uint64_t split_tests = 0;  // extra hash tests spent isolating culprits
};

// Instance i compares xs[i] (Alice) with ys[i] (Bob). Returns per-instance
// verdicts known to both parties; fills *stats if non-null. With a
// Checkpoint installed (tag "amortized_eq"), a snapshot of the resolved
// verdicts and surviving groups is saved after every completed level, and
// a crashed session resumes at the first unfinished level — each level
// draws from an independent nonce substream, so the resumed transcript is
// bit-identical to an uninterrupted one.
std::vector<bool> amortized_equality(sim::Channel& channel,
                                     const sim::SharedRandomness& shared,
                                     std::uint64_t nonce,
                                     const std::vector<util::BitBuffer>& xs,
                                     const std::vector<util::BitBuffer>& ys,
                                     AmortizedEqStats* stats = nullptr,
                                     core::Checkpoint* ckpt = nullptr);

}  // namespace setint::eq

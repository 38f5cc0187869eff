// The equality test of Fact 3.5 and its batched form.
//
// Shared-randomness protocol for EQ on arbitrary bit strings:
//   * x == y  ->  both output "equal" with probability 1 (one-sided);
//   * x != y  ->  both output "not equal" with probability >= 1 - 2^-b.
// Cost: b hash bits from the opener plus a 1-bit verdict back; two
// rounds, or one when the hash rides the opener's previous turn. The batched variant tests many instances at once in the same two
// rounds — this is what lets every stage of the verification-tree protocol
// run all of its equality tests "in parallel" (Theorem 3.6's round count).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/channel.h"
#include "sim/randomness.h"
#include "util/bitio.h"

namespace setint::eq {

// Single equality test with `bits` hash bits (error 2^-bits). `nonce`
// must be fresh per invocation so repeated tests use fresh randomness.
// Strings are word spans (a BitBuffer converts implicitly; arena-packed
// strings come from util::pack_sets). `opener` sends the hash and its
// peer the verdict; the verdict does not depend on the choice, so a
// caller lets the party that spoke last open, and the hash rides that
// party's turn.
bool equality_test(sim::Channel& channel, const sim::SharedRandomness& shared,
                   std::uint64_t nonce, util::BitSpan xa, util::BitSpan xb,
                   std::size_t bits, sim::PartyId opener = sim::PartyId::kAlice);

// Batched: instance i compares xa[i] (Alice's side) against xb[i] (Bob's).
// Returns the per-instance verdicts (true = declared equal), known to both
// parties. Two rounds total regardless of the number of instances:
// Alice sends all hashes, Bob replies the verdict bitmap.
std::vector<bool> batch_equality_test(sim::Channel& channel,
                                      const sim::SharedRandomness& shared,
                                      std::uint64_t nonce,
                                      std::span<const util::BitSpan> xa,
                                      std::span<const util::BitSpan> xb,
                                      std::size_t bits);

// Hash width needed for failure probability <= `target_failure` (Fact 3.5:
// b = ceil(log2(1/target_failure))), clamped to at least 1 bit.
std::size_t bits_for_failure(double target_failure);

}  // namespace setint::eq

// Basic-Intersection (Lemma 3.3) — the hash-exchange building block.
//
// On subsets S, T of [universe), the parties exchange sizes, agree on a
// shared pairwise hash h: [universe) -> [t] with t sized for the requested
// failure probability, exchange h(S) and h(T), and output
//   S' = h^-1(h(T)) cap S      (Alice),
//   T' = h^-1(h(S)) cap T      (Bob).
// Guarantees (Lemma 3.3): S' <= S, T' <= T; if S cap T is empty then
// S' cap T' is empty with probability 1; always S cap T <= S' cap T'; and
// with probability >= 1 - target_failure, S' = T' = S cap T. Corollary 3.4:
// S' == T' implies both equal S cap T — the invariant the verification
// tree's equality tests exploit.
//
// Three rounds: Alice's sizes A->B; Bob's sizes and hashed set B->A, one
// turn; Alice's hashed set A->B. Bob's sizes depend only on T and his
// image only on the two sizes and T, so nothing waits for a fourth round.
// The batched form runs many leaf instances in the same three rounds. In
// the verification tree the stage's verifier opens instead, in the turn
// that carries its equality verdicts, which keeps a repairing stage at
// three rounds past its hashes. Both entry points step a
// BasicIntersectionRun over two BasicIntersectionParty objects
// (core/parties.h) to completion.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/parties.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "sim/runtime.h"
#include "util/arena.h"
#include "util/set_util.h"

namespace setint::core {

struct CandidatePair {
  util::Set s_candidate;  // Alice's S'
  util::Set t_candidate;  // Bob's T'
};

// Single instance. `nonce` keys the shared hash; re-runs must use fresh
// nonces. target_failure in (0, 1). With a Checkpoint installed the
// protocol snapshots after each of the first two turns (tag "bi": phase 1
// = Alice's sizes delivered, phase 2 = Bob's sizes and images delivered)
// and resumes from there after a crash, replaying only the undelivered
// messages.
CandidatePair basic_intersection(sim::Channel& channel,
                                 const sim::SharedRandomness& shared,
                                 std::uint64_t nonce, std::uint64_t universe,
                                 util::SetView s, util::SetView t,
                                 double target_failure,
                                 Checkpoint* ckpt = nullptr);

// Deterministic hash-range derivation from the exchanged sizes, which both
// Basic-Intersection parties (core/parties.h) apply to derive the same
// hash function.
std::uint64_t basic_intersection_range(std::uint64_t total_size,
                                       double target_failure);

// Batched: instance j intersects pairs[j].first (Alice side) with
// pairs[j].second (Bob side); all instances share the three rounds.
std::vector<CandidatePair> basic_intersection_batch(
    sim::Channel& channel, const sim::SharedRandomness& shared,
    std::uint64_t nonce, std::uint64_t universe,
    std::span<const std::pair<util::SetView, util::SetView>> pairs,
    double target_failure, Checkpoint* ckpt = nullptr);

// One batched Basic-Intersection run as a steppable object: both parties
// and the sim::TwoPartyRun between them, in the caller's arena frame.
// basic_intersection_batch steps it to completion; the sans-IO "bi"
// machine (core/engine.h) steps it one boundary at a time. Requires at
// least one pair; the views, the channel and the checkpoint must outlive
// the run.
class BasicIntersectionRun {
 public:
  BasicIntersectionRun(
      sim::Channel& channel, const sim::SharedRandomness& shared,
      std::uint64_t nonce, std::uint64_t universe,
      std::span<const std::pair<util::SetView, util::SetView>> pairs,
      double target_failure, Checkpoint* ckpt = nullptr);

  bool step() { return run_.step(); }
  // Instance j's candidates, once step() has returned true.
  CandidatePair candidates(std::size_t j) const;

 private:
  std::vector<util::SetView> sides_;  // Alice's views, then Bob's
  util::ScratchArena::Frame frame_;
  BasicIntersectionParty alice_;  // opens
  BasicIntersectionParty bob_;
  sim::TwoPartyRun run_;
};

}  // namespace setint::core

// The paper's main contribution: the verification-tree protocol
// (Algorithm 1, Theorems 1.1 / 3.6).
//
// Shape: hash both sets into k buckets (the tree's leaves) with a shared
// pairwise hash. Build a depth-r tree over the leaves whose level-i nodes
// cover |C(v)| = log^(r-i) k leaves (so level degrees are
// d_i = log^(r-i) k / log^(r-i+1) k, d_1 = log^(r-1) k). Then run r
// stages, i = 0..r-1, hashed by Alice at even stages and by Bob at odd
// ones, the other party verifying:
//   1. batched equality tests on the concatenated per-leaf candidate
//      assignments at every level-i node, with failure probability
//      1/(log^(r-i-1) k)^4 (i.e. 4 log^(r-i) k hash bits): the hasher's
//      hashes, the verifier's verdicts;
//   2. for every failed node, re-run Basic-Intersection on all leaves in
//      its subtree with matching failure probability — 2 more rounds:
//      the verifier sends its sizes in its verdict turn, the hasher
//      answers with its sizes and images in one turn, and the verifier's
//      images close the stage.
// The verifier opens stage i + 1 with its hashes in the turn that closes
// stage i, so stage 0 takes 2 rounds and every later stage 1, plus 2 when
// it repairs: r + 1 to 3r + 1 rounds in all (the paper's schedule, one
// exchange per round, takes 6r). Expected communication
// O(k log^(r) k): the stage-0 equality tests dominate and every other
// level costs O(k) (proof of Theorem 3.6); with r = log* k this is the
// optimal O(k) bits.
//
// Correctness: candidate assignments are always supersets of the true
// per-bucket intersection (Lemma 3.3 / Proposition 3.9), and equal
// candidates are exactly the intersection (Corollary 3.4), so the output
// equals S cap T unless some final equality test passes falsely —
// probability <= 1/poly(k) (Corollary 3.8).
//
// The protocol exists once, as the party machines of core/tree_parties.h;
// verification_tree_intersection derives the public parameters (k, r) and
// steps a VerificationTreeRun, which runs Alice's TreeParty against Bob's.
#pragma once

#include <cstdint>
#include <vector>

#include "core/checkpoint.h"
#include "core/protocol.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "util/set_util.h"

namespace setint::core {

// Deepest tree the protocol runs. log*(k) <= 5 for every k < 2^64, so
// deeper trees only add degenerate stages.
inline constexpr int kMaxTreeStages = 64;

struct VerificationTreeParams {
  // Number of stages r, at most kMaxTreeStages. 0 means "auto": log*(k),
  // the communication-optimal choice (Theorem 1.1 with O(k) bits).
  int rounds_r = 0;

  // Number of buckets / tree leaves. 0 means "auto": max(|S|, |T|, 2).
  std::size_t bucket_count = 0;

  // Multiplier on the 4*log^(r-i) k equality-bit schedule (ablation knob;
  // 1.0 reproduces the paper's constants).
  double eq_bits_scale = 1.0;

  // Multiplier on Basic-Intersection hash ranges (ablation knob).
  double bi_range_scale = 1.0;

  // If > 0, stop the randomized protocol at the first stage end past
  // cutoff * k * log^(r) k payload bits and fall back to deterministic
  // exchange — the paper's trick for turning the expected bound into a
  // worst-case one. 0 disables.
  double worst_case_cutoff_factor = 0.0;
};

// Per-run internals, exported for tests and the E11 bench.
struct VerificationTreeDiag {
  std::vector<std::uint64_t> stage_failures;   // failed nodes per stage
  std::vector<std::uint64_t> stage_eq_bits;    // equality bits per stage
  std::vector<std::uint64_t> stage_bi_bits;    // Basic-Intersection bits
  std::vector<std::uint32_t> leaf_reruns;      // Basic-Intersection runs/leaf
  std::uint64_t total_bi_runs = 0;
  bool fallback_used = false;
};

// With a Checkpoint (core/checkpoint.h) installed, the runner saves a
// snapshot (tag "vt", phase = completed stages) after every completed
// stage: the log of messages delivered so far. On re-entry after a crash
// it feeds that log to fresh parties and resumes live from the first
// unfinished stage, so the transcript is bit-identical to an
// uninterrupted run. A stage that trips the worst-case cutoff saves no
// snapshot. nullptr disables checkpointing (no logging cost on the clean
// path).
IntersectionOutput verification_tree_intersection(
    sim::Channel& channel, const sim::SharedRandomness& shared,
    std::uint64_t nonce, std::uint64_t universe, util::SetView s,
    util::SetView t, const VerificationTreeParams& params = {},
    VerificationTreeDiag* diag = nullptr, Checkpoint* ckpt = nullptr);

class VerificationTreeProtocol final : public IntersectionProtocol {
 public:
  explicit VerificationTreeProtocol(VerificationTreeParams params = {})
      : params_(params) {}
  std::string name() const override;
  RunResult run(std::uint64_t seed, std::uint64_t universe, util::SetView s,
                util::SetView t) const override;

 private:
  VerificationTreeParams params_;
};

// The tree layout used by the protocol, exposed for tests: level_ranges[i]
// is the partition of [0, leaves) into the level-i node ranges
// (level_ranges[0] = singletons ... level_ranges[r] = one root range),
// built top-down from core::TreeShape's cover sizes. The parties derive
// each stage's ranges from the same covers themselves and hold no layout.
// Throws std::invalid_argument unless leaves >= 1 and
// 1 <= rounds_r <= kMaxTreeStages.
std::vector<std::vector<std::pair<std::size_t, std::size_t>>>
verification_tree_layout(std::size_t leaves, int rounds_r);

}  // namespace setint::core

// The verification-tree protocol (Algorithm 1) as strictly-separated
// party state machines — its only implementation. VerificationTreeRun
// (below) builds a TreeAlice and a TreeBob over views of the two inputs
// and runs them with a sim::TwoPartyRun, which also proves the protocol
// needs no out-of-band knowledge; the public entry point,
// verification_tree_intersection (core/verification_tree.h), steps it to
// completion. Every message is produced and read by the equality and
// Basic-Intersection parties of core/parties.h, so the wire formats exist
// once.
//
// Message flow per stage: two rounds, or four when a node fails (at most
// six messages; r stages fit in 4r rounds):
//   A -> B : equality hashes for every level-i node      (EqualityAlice)
//   B -> A : verdict bitmap                              (EqualityBob)
//   [only when some node failed, for every leaf under a failed node;
//    Bob opens Basic-Intersection in his verdict turn]
//   B -> A : Basic-Intersection sizes    (BasicIntersectionOpener)
//   A -> B : sizes, then hashed images   (BasicIntersectionResponder)
//   B -> A : hashed images
// Both parties know from the verdicts alone which leaves repair, and a
// party's sizes depend only on its own candidates, so Bob's sizes need not
// wait for a turn of Alice's. Each side's images depend only on the two
// sizes and its own candidates, and each output stays a filter of the
// party's own candidates, so Lemma 3.3 and Corollary 3.4 hold as in the
// paper's six-round order.
//
// Stage boundary: Bob's last message of a stage is the only one flagged
// `boundary` (the sub-parties' own Basic-Intersection flags are cleared),
// so the runner's checkpoint phase counts completed stages. Messages are
// metered under the tracer paths `level=i/equality` and
// `level=i/basic_intersection/{size_exchange,hash_exchange}`.
//
// Worst-case cutoff (params.worst_case_cutoff_factor > 0): each party sums
// the payload bits of every frame it sends or receives; when a stage ends
// past cutoff * k * log^(r) k bits, both parties stop with
// fallback_used() and that stage's last message carries no boundary flag.
// The caller then runs the deterministic exchange.
//
// Heap use: a party holds its tree as r + 1 cover sizes (TreeShape) and
// derives each stage's node ranges into storage that stage 0 sizes and
// later stages reuse, like its verdicts, node views and repair lists; its
// one Basic-Intersection sub-party is re-armed each stage. Messages are
// built in buffers from the session's pool, which the runner refills with
// every delivered message. Nothing is shared across sessions.
//
// Public parameters must be explicit: bucket_count > 0 and
// 2 <= r <= kMaxTreeStages (the r = 1 base case is the one-round
// protocol). Inputs are canonical sets in [0, universe), validated by the
// caller; the input views and the caller's arena frame (both parties
// share the session's arena) must outlive the run.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/parties.h"
#include "core/verification_tree.h"
#include "obs/tracer.h"
#include "sim/randomness.h"
#include "sim/runtime.h"
#include "util/arena.h"
#include "util/flat_buckets.h"
#include "util/set_util.h"

namespace setint::core {

// The tree's shape over k leaves and r stages: a level-i node covers
// |C(v)| = log^(r-i) k leaves, rounded, clamped into [1, k] and kept
// monotone in i so the levels nest (level 0: the leaves; level r: the
// root). Only the r + 1 cover sizes are held, in a fixed array; a level's
// node ranges are derived on demand, so a session asks the heap for no
// layout. verification_tree_layout builds its ranges from these covers.
class TreeShape {
 public:
  // Throws std::invalid_argument unless leaves >= 1 and
  // 1 <= rounds_r <= kMaxTreeStages.
  TreeShape(std::size_t leaves, int rounds_r);

  int rounds() const { return r_; }
  // Leaves per level-i node (the last node of a parent may have fewer).
  std::size_t cover(int level) const {
    return cover_[static_cast<std::size_t>(level)];
  }
  // The level-i nodes as fence posts, one boundary per node plus the end:
  // node v covers leaves [bounds[v], bounds[v + 1]). Overwrites `bounds`,
  // keeping its capacity.
  void level_bounds(int level, std::vector<std::size_t>& bounds) const;

 private:
  // Appends the starts of the level-`level` nodes inside the level-j
  // node [lo, hi).
  void append_starts(int j, std::size_t lo, std::size_t hi, int level,
                     std::vector<std::size_t>& starts) const;

  std::size_t leaves_;
  int r_;
  std::array<std::size_t, kMaxTreeStages + 1> cover_{};
};

// State and stage schedule common to both endpoints; everything here is
// derived from public parameters plus the party's own input.
class TreeParty : public sim::Party {
 public:
  // `full_diag`: keep the per-stage and per-leaf diag() vectors. Only
  // Alice's reach a caller; Bob keeps fallback_used alone, which drives
  // his done() and his boundary flag.
  TreeParty(const sim::SharedRandomness& shared, std::uint64_t nonce,
            std::uint64_t universe, util::SetView input,
            const VerificationTreeParams& params, sim::PartyEnv env,
            bool full_diag);

  bool done() const override {
    return stage_ >= shape_.rounds() || diag_.fallback_used;
  }

  // Union of the per-leaf candidate assignments, sorted.
  util::Set output() const;
  // What this party saw: per-stage failures and bits, per-leaf re-runs
  // (empty vectors unless full_diag), whether the cutoff fired.
  const VerificationTreeDiag& diag() const { return diag_; }
  // Own elements hashed into leaf u by the initial bucket partition.
  std::size_t bucket_size(std::size_t u) const {
    return buckets_.bucket_size(u);
  }
  // Stage-i equality hash width (4 log^(r-i) k, scaled).
  std::size_t eq_bits(int stage) const;
  // Leaves under the nodes that failed the last equality exchange this
  // party took part in, in leaf order.
  const std::vector<std::size_t>& failed_leaves() const {
    return failed_leaves_;
  }
  // Stages completed so far.
  int stage() const { return stage_; }
  // Per-leaf candidates: views of the bucket table and of the
  // Basic-Intersection candidates, all in the session's arena.
  std::span<const util::SetView> assignment() const { return assignment_; }
  // The current stage's node contents, for equality: node v's string is
  // the append_set encodings of its leaves' candidates, concatenated,
  // packed into one region of the session's arena (util::pack_sets).
  // Valid until the caller's arena frame closes or the next call.
  std::span<const util::BitSpan> node_contents();

 protected:
  std::uint64_t eq_nonce() const;
  // Records the nodes verdicts_ failed and the own sets of the leaves
  // under them (failed_sets_); true if there are any.
  bool fail_leaves();
  // Basic-Intersection over failed_sets_ for the current stage, with
  // `self`'s message labels.
  template <typename BiParty>
  void start_repair(std::optional<BiParty>& bi, sim::PartyId self);
  // Takes the repaired leaves' candidates; the repair is over.
  void take_candidates(const BasicIntersectionParty& bi);

  // Adds a frame's payload to the stage's equality or BI bits.
  void meter(const util::BitBuffer& frame, bool repair);
  // Meters a sub-party's message, tags it with the stage's tracer path
  // and clears its boundary flag (keep_floor passes through).
  sim::Outgoing send(std::optional<sim::Outgoing> msg, bool repair);
  // Closes the current stage; true if the protocol goes on.
  bool end_stage();

  sim::SharedRandomness shared_;
  std::uint64_t nonce_;
  std::uint64_t universe_;
  VerificationTreeParams params_;
  sim::PartyEnv env_;
  TreeShape shape_;
  int stage_ = 0;
  bool repairing_ = false;        // the stage's Basic-Intersection runs
  double budget_ = 0.0;           // cutoff in payload bits (inf: none)
  std::uint64_t bits_seen_ = 0;   // payload bits sent plus received
  util::FlatBuckets buckets_;     // initial partition, in the arena
  // Per-stage storage, sized by stage 0 (the most nodes) and reused by
  // every later stage.
  std::vector<util::SetView> assignment_;     // per-leaf candidates
  std::vector<std::size_t> bounds_;           // stage's nodes, fence posts
  std::vector<util::BitSpan> nodes_;          // node_contents() views
  std::vector<bool> verdicts_;                // stage's equality verdicts
  std::vector<std::size_t> failed_leaves_;    // current stage's repairs
  std::vector<util::SetView> failed_sets_;    // own sets of those leaves
  bool full_diag_;
  VerificationTreeDiag diag_;
};

class TreeAlice final : public TreeParty {
 public:
  TreeAlice(const sim::SharedRandomness& shared, std::uint64_t nonce,
            std::uint64_t universe, util::SetView input,
            const VerificationTreeParams& params, sim::PartyEnv env)
      : TreeParty(shared, nonce, universe, input, params, env,
                  /*full_diag=*/true) {}
  std::optional<sim::Outgoing> start() override;
  std::optional<sim::Outgoing> on_message(
      const util::BitBuffer& message) override;
  // Her images, after the sizes that answer Bob's.
  std::optional<sim::Outgoing> next() override;

 private:
  std::optional<sim::Outgoing> begin_stage();
  std::optional<EqualityAlice> eq_;
  std::optional<BasicIntersectionResponder> bi_;
};

class TreeBob final : public TreeParty {
 public:
  TreeBob(const sim::SharedRandomness& shared, std::uint64_t nonce,
          std::uint64_t universe, util::SetView input,
          const VerificationTreeParams& params, sim::PartyEnv env)
      : TreeParty(shared, nonce, universe, input, params, env,
                  /*full_diag=*/false) {}
  std::optional<sim::Outgoing> on_message(
      const util::BitBuffer& message) override;
  // His Basic-Intersection sizes, after verdicts that fail a node.
  std::optional<sim::Outgoing> next() override;

 private:
  std::optional<BasicIntersectionOpener> bi_;
};

// One verification-tree run as a steppable object: the public parameters,
// the r = 1 base case, both parties and the run between them, the verdict
// check, the vt.* metrics and the worst-case cutoff fallback.
// verification_tree_intersection steps it to completion; the sans-IO "vt"
// machine (core/engine.h) and the certified session
// (multiparty/coordinator.h) step it one stage at a time. The channel,
// the shared randomness, the inputs and the checkpoint must outlive the
// run.
class VerificationTreeRun {
 public:
  VerificationTreeRun(sim::Channel& channel,
                      const sim::SharedRandomness& shared, std::uint64_t nonce,
                      std::uint64_t universe, util::SetView s,
                      util::SetView t, const VerificationTreeParams& params,
                      Checkpoint* ckpt = nullptr);

  // Runs to the next stage boundary (false) or to the end (true).
  bool step();
  // Final once step() has returned true.
  IntersectionOutput& output() { return output_; }
  const IntersectionOutput& output() const { return output_; }
  // Empty for r = 1.
  const VerificationTreeDiag& diag() const;

 private:
  // Alice as the runner drives her, plus the loud check a simulation that
  // holds both parties can afford: once Alice has read Bob's verdicts,
  // both must repair the same leaves. A tampered verdict frame fails the
  // run right there, before the desynchronised repair sends anything:
  // the runner hands Alice the verdicts before it asks Bob for the sizes
  // that follow them.
  class CheckedAlice final : public sim::Party {
   public:
    CheckedAlice(TreeAlice& alice, const TreeBob& bob)
        : alice_(alice), bob_(bob) {}
    std::optional<sim::Outgoing> start() override { return alice_.start(); }
    std::optional<sim::Outgoing> on_message(
        const util::BitBuffer& message) override;
    std::optional<sim::Outgoing> next() override { return alice_.next(); }
    bool done() const override { return alice_.done(); }

   private:
    TreeAlice& alice_;
    const TreeBob& bob_;
  };

  sim::Channel& channel_;
  const sim::SharedRandomness& shared_;
  std::uint64_t nonce_;
  std::uint64_t universe_;
  util::SetView s_;
  util::SetView t_;
  VerificationTreeParams pub_;  // bucket_count and rounds_r derived
  obs::Span span_;
  // Unused for r = 1, where step() runs the one-round protocol.
  std::optional<util::ScratchArena::Frame> frame_;
  std::optional<TreeAlice> alice_;
  std::optional<TreeBob> bob_;
  std::optional<CheckedAlice> checked_;
  std::optional<sim::TwoPartyRun> run_;
  IntersectionOutput output_;
};

}  // namespace setint::core

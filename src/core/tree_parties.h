// The verification-tree protocol (Algorithm 1) as strictly-separated
// party state machines — its only implementation. VerificationTreeRun
// (below) builds one TreeParty per side over views of the two inputs and
// runs them with a sim::TwoPartyRun, which also proves the protocol needs
// no out-of-band knowledge; the public entry point,
// verification_tree_intersection (core/verification_tree.h), steps it to
// completion. Every message is produced and read by the equality and
// Basic-Intersection parties of core/parties.h, so the wire formats exist
// once.
//
// Roles alternate by stage: Alice hashes the even stages and Bob the odd
// ones; the other party verifies. Message flow of stage i, hasher H and
// verifier V (at most six messages):
//   H -> V : equality hashes for every level-i node      (EqualityHasher)
//   V -> H : verdict bitmap                              (EqualityVerifier)
//   [only when some node failed, for every leaf under a failed node;
//    V opens Basic-Intersection in its verdict turn]
//   V -> H : Basic-Intersection sizes    (BasicIntersectionParty, opener)
//   H -> V : sizes, then hashed images   (BasicIntersectionParty, responder)
//   V -> H : hashed images
// The verifier sends the stage's last message either way, and it already
// holds its final candidates then, so it opens stage i + 1 in the same
// turn with that stage's hashes: stage 0 takes two rounds, four when it
// repairs, every later stage one, three when it repairs, so r stages take
// r + 1 rounds clean and 3r + 1 at most. The hashes of stage i + 1 are
// keyed by shared randomness drawn independently of the node strings, and
// h(x) = h(y) is symmetric, so who hashes changes no verdict (Fact 3.5).
// Both parties know from the verdicts alone which leaves repair, and a
// party's sizes depend only on its own candidates; each side's images
// depend only on the two sizes and its own candidates, and each output
// stays a filter of the party's own candidates, so Lemma 3.3 and
// Corollary 3.4 hold as in the paper's six-round order.
//
// Stage boundary: the verifier's hashes for stage i + 1, the last message
// of the turn that closes stage i, are the only message flagged
// `boundary` (the sub-parties' own Basic-Intersection flags are cleared);
// after the last stage the closing message itself carries the flag. So
// the runner's checkpoint phase counts completed stages. Messages are
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
// one Basic-Intersection sub-party is re-armed each stage, in the role the
// stage gives it. Messages are built in buffers from the session's pool,
// which the runner refills with every delivered message. Nothing is shared
// across sessions.
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

// One endpoint, Alice or Bob: it hashes the stages its parity gives it
// and verifies the others. Everything here is derived from public
// parameters plus the party's own input.
class TreeParty final : public sim::Party {
 public:
  // Only Alice keeps the per-stage and per-leaf diag() vectors, which
  // reach a caller; Bob keeps fallback_used alone, which drives his
  // done() and his boundary flag.
  TreeParty(const sim::SharedRandomness& shared, std::uint64_t nonce,
            std::uint64_t universe, util::SetView input,
            const VerificationTreeParams& params, sim::PartyEnv env,
            sim::PartyId self);

  // Alice's stage-0 hashes.
  std::optional<sim::Outgoing> start() override;
  std::optional<sim::Outgoing> on_message(
      const util::BitBuffer& message) override;
  // The rest of a turn: the verifier's sizes after verdicts that fail a
  // node, the responder's images after its sizes, or, once this party has
  // closed a stage, the next stage's hashes.
  std::optional<sim::Outgoing> next() override;
  bool done() const override {
    return stage_ >= shape_.rounds() || diag_.fallback_used;
  }

  // The party that hashes stage `stage`: Alice at even stages, Bob at
  // odd ones. The other party verifies it, opens its repair and sends
  // its last message.
  static sim::PartyId hasher(int stage) {
    return stage % 2 == 0 ? sim::PartyId::kAlice : sim::PartyId::kBob;
  }
  // True from sending the stage's hashes until reading its verdicts.
  bool awaiting_verdicts() const { return eq_.has_value(); }

  // Union of the per-leaf candidate assignments, sorted.
  util::Set output() const;
  // What this party saw: per-stage failures and bits, per-leaf re-runs
  // (empty vectors for Bob), whether the cutoff fired.
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

 private:
  std::uint64_t eq_nonce() const;
  // The current stage's hashes, with the pending test kept in eq_.
  sim::Outgoing hashes_message();
  // Records the nodes verdicts_ failed and the own sets of the leaves
  // under them (failed_sets_); true if there are any.
  bool fail_leaves();
  // Basic-Intersection over failed_sets_ for the current stage, opened
  // by its verifier.
  void start_repair();
  // Takes the repaired leaves' candidates; the repair is over.
  void take_candidates();

  // Adds a frame's payload to the stage's equality or BI bits.
  void meter(const util::BitBuffer& frame, bool repair);
  // Meters a sub-party's message, tags it with the stage's tracer path
  // and clears its boundary flag (keep_floor passes through).
  sim::Outgoing send(std::optional<sim::Outgoing> msg, bool repair);
  // Closes the current stage; true if the protocol goes on.
  bool end_stage();
  // The verifier's last message of the stage, once the stage is closed:
  // it keeps the floor for the next stage's hashes, or ends the run.
  sim::Outgoing close_stage(sim::Outgoing last);

  sim::SharedRandomness shared_;
  std::uint64_t nonce_;
  std::uint64_t universe_;
  VerificationTreeParams params_;
  sim::PartyEnv env_;
  sim::PartyId self_;
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
  std::optional<EqualityHasher> eq_;          // hashes sent, verdicts due
  std::optional<BasicIntersectionParty> bi_;  // re-armed every repair
  bool full_diag_;
  VerificationTreeDiag diag_;
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
  // The party that sent the run's last message, once step() has returned
  // true: the last stage's verifier, or Bob, whose reply ends the
  // one-round protocol and the deterministic exchange. A protocol that
  // follows on the same channel opens with it to share that turn.
  sim::PartyId last_sender() const;

 private:
  // A party as the runner drives it, plus the loud check a simulation
  // that holds both parties can afford: once a stage's hasher has read
  // the verdicts, both parties must repair the same leaves. A tampered
  // verdict frame fails the run right there, before the desynchronised
  // repair sends anything: the runner hands the hasher the verdicts
  // before it asks the verifier for the sizes that follow them.
  class Checked final : public sim::Party {
   public:
    Checked(TreeParty& self, const TreeParty& peer)
        : self_(self), peer_(peer) {}
    std::optional<sim::Outgoing> start() override { return self_.start(); }
    std::optional<sim::Outgoing> on_message(
        const util::BitBuffer& message) override;
    std::optional<sim::Outgoing> next() override { return self_.next(); }
    bool done() const override { return self_.done(); }

   private:
    TreeParty& self_;
    const TreeParty& peer_;
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
  std::optional<TreeParty> alice_;
  std::optional<TreeParty> bob_;
  std::optional<Checked> checked_alice_;
  std::optional<Checked> checked_bob_;
  std::optional<sim::TwoPartyRun> run_;
  IntersectionOutput output_;
};

}  // namespace setint::core

// The verification-tree protocol (Algorithm 1) as strictly-separated
// party state machines — its only implementation. The public entry point,
// verification_tree_intersection (core/verification_tree.h), builds a
// TreeAlice and a TreeBob over views of the two inputs and runs them with
// sim::run_two_party, which also proves the protocol needs no out-of-band
// knowledge. Every message is produced and read by the equality and
// Basic-Intersection parties of core/parties.h, so the wire formats exist
// once.
//
// Message flow per stage (at most 6 messages, matching the 6r bound):
//   A -> B : equality hashes for every level-i node      (EqualityAlice)
//   B -> A : verdict bitmap                              (EqualityBob)
//   [only when some node failed, for every leaf under a failed node]
//   A -> B : Basic-Intersection sizes          (BasicIntersectionAlice)
//   B -> A : sizes                             (BasicIntersectionBob)
//   A -> B : hashed images
//   B -> A : hashed images
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
// Public parameters must be explicit: bucket_count > 0 and
// 2 <= r <= kMaxTreeStages (the r = 1 base case is the one-round
// protocol). Inputs are canonical sets in [0, universe), validated by the
// caller; the input views and the caller's arena frame (both parties
// share the session's arena) must outlive the run.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/parties.h"
#include "core/verification_tree.h"
#include "sim/randomness.h"
#include "sim/runtime.h"
#include "util/flat_buckets.h"
#include "util/set_util.h"

namespace setint::core {

// level_ranges[i] partitions [0, leaves) into the level-i node ranges
// (see verification_tree_layout).
using TreeLayout =
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>>;

// Memoized layout: one immutable copy per (leaves, r), shared by every
// session that asks for that shape.
std::shared_ptr<const TreeLayout> tree_layout(std::size_t leaves, int rounds_r);

// State and stage schedule common to both endpoints; everything here is
// derived from public parameters plus the party's own input.
class TreeParty : public sim::Party {
 public:
  TreeParty(const sim::SharedRandomness& shared, std::uint64_t nonce,
            std::uint64_t universe, util::SetView input,
            const VerificationTreeParams& params, sim::PartyEnv env);

  bool done() const override { return stage_ >= r_ || diag_.fallback_used; }

  // Union of the per-leaf candidate assignments, sorted.
  util::Set output() const;
  // What this party saw: per-stage failures and bits, per-leaf re-runs,
  // whether the cutoff fired.
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
  // Records the failed nodes and the own sets of the leaves under them
  // (failed_sets_); true if there are any.
  bool fail_leaves(const std::vector<bool>& pass);
  // Basic-Intersection over failed_sets_ for the current stage.
  template <typename BiParty>
  void start_repair(std::optional<BiParty>& bi);
  void take_candidates(const BasicIntersectionParty& bi);

  // Adds a frame's payload to the stage's equality or BI bits.
  void meter(const util::BitBuffer& frame, bool repair);
  // Meters a sub-party's message, tags it with the stage's tracer path
  // and clears its boundary flag.
  sim::Outgoing send(std::optional<sim::Outgoing> msg, bool repair);
  // Closes the current stage; true if the protocol goes on.
  bool end_stage();

  sim::SharedRandomness shared_;
  std::uint64_t nonce_;
  std::uint64_t universe_;
  VerificationTreeParams params_;
  sim::PartyEnv env_;
  int r_ = 0;
  int stage_ = 0;
  std::shared_ptr<const TreeLayout> layout_;
  double budget_ = 0.0;           // cutoff in payload bits (inf: none)
  std::uint64_t bits_seen_ = 0;   // payload bits sent plus received
  util::FlatBuckets buckets_;     // initial partition, in the arena
  std::vector<util::SetView> assignment_;     // per-leaf candidates
  std::vector<util::BitSpan> nodes_;          // node_contents() views
  std::vector<std::size_t> failed_leaves_;    // current stage's repairs
  std::vector<util::SetView> failed_sets_;    // own sets of those leaves
  VerificationTreeDiag diag_;
};

class TreeAlice final : public TreeParty {
 public:
  using TreeParty::TreeParty;
  std::optional<sim::Outgoing> start() override;
  std::optional<sim::Outgoing> on_message(
      const util::BitBuffer& message) override;

 private:
  std::optional<sim::Outgoing> begin_stage();
  std::optional<EqualityAlice> eq_;
  std::optional<BasicIntersectionAlice> bi_;
};

class TreeBob final : public TreeParty {
 public:
  using TreeParty::TreeParty;
  std::optional<sim::Outgoing> on_message(
      const util::BitBuffer& message) override;

 private:
  std::optional<BasicIntersectionBob> bi_;
};

}  // namespace setint::core

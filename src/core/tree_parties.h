// The verification-tree protocol (Algorithm 1) as strictly-separated
// party state machines — the paper's MAIN protocol in message-driven
// form, proving the driver implementation in verification_tree.cc uses no
// out-of-band knowledge. Substream labels and parameter schedules mirror
// the driver; every message is produced and read by the equality and
// Basic-Intersection parties of core/parties.h, so the wire formats exist
// once. tests/tree_parties_test.cc checks whole-transcript digests for
// equality with the driver.
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
// Restrictions vs. the driver: r >= 2 (the r = 1 delegation to the
// one-round protocol lives in OneRoundHash{Alice,Bob}) and no worst-case
// cutoff (set params.worst_case_cutoff_factor = 0).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/parties.h"
#include "core/verification_tree.h"
#include "sim/randomness.h"
#include "sim/runtime.h"
#include "util/arena.h"
#include "util/set_util.h"

namespace setint::core {

// State shared by the two endpoints (everything here is derived from
// public parameters plus the party's own input). Each party owns its
// scratch; `limits` bounds what it decodes (null: unbounded).
class TreePartyBase {
 protected:
  TreePartyBase(sim::SharedRandomness shared, std::uint64_t nonce,
                std::uint64_t universe, util::Set input,
                const VerificationTreeParams& params,
                const ResourceLimits* limits);

  // Stage-i inputs of the sub-protocols, with the driver's formulas and
  // nonces: per-node contents for equality, and the own sets of the leaves
  // under nodes whose test failed (failed_sets_) for Basic-Intersection.
  std::span<const util::BitBuffer> node_contents(int stage);
  std::uint64_t eq_nonce(int stage) const;
  std::size_t eq_bits(int stage) const;
  // Records the leaves under failed nodes; true if there are any.
  bool fail_leaves(const std::vector<bool>& pass, int stage);
  std::uint64_t bi_nonce(int stage) const;
  double bi_failure(int stage) const;
  void take_candidates(BasicIntersectionParty& bi);

  util::Set gather_output() const;

  sim::SharedRandomness shared_;
  std::uint64_t nonce_;
  std::uint64_t universe_;
  VerificationTreeParams params_;
  util::BufferPool pool_;
  util::ScratchArena arena_;
  sim::PartyEnv env_;
  std::size_t buckets_ = 0;
  int r_ = 0;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> layout_;
  std::vector<util::Set> assignment_;        // per-leaf candidates
  std::vector<util::BitBuffer> contents_;    // current stage's node contents
  std::vector<std::size_t> failed_leaves_;   // current stage's repairs
  std::vector<util::SetView> failed_sets_;   // own sets of those leaves
};

class TreeAlice final : public sim::Party, private TreePartyBase {
 public:
  TreeAlice(sim::SharedRandomness shared, std::uint64_t nonce,
            std::uint64_t universe, util::Set input,
            const VerificationTreeParams& params,
            const ResourceLimits* limits = nullptr);
  std::optional<sim::Outgoing> start() override;
  std::optional<sim::Outgoing> on_message(
      const util::BitBuffer& message) override;
  bool done() const override { return stage_ >= r_; }
  util::Set output() const { return gather_output(); }

 private:
  std::optional<sim::Outgoing> begin_stage();
  int stage_ = 0;
  std::optional<EqualityAlice> eq_;
  std::optional<BasicIntersectionAlice> bi_;
};

class TreeBob final : public sim::Party, private TreePartyBase {
 public:
  TreeBob(sim::SharedRandomness shared, std::uint64_t nonce,
          std::uint64_t universe, util::Set input,
          const VerificationTreeParams& params,
          const ResourceLimits* limits = nullptr);
  std::optional<sim::Outgoing> on_message(
      const util::BitBuffer& message) override;
  bool done() const override { return stage_ >= r_; }
  util::Set output() const { return gather_output(); }

 private:
  int stage_ = 0;
  std::optional<BasicIntersectionBob> bi_;
};

}  // namespace setint::core

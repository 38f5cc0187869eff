// The building-block protocols as strictly-separated parties (see
// sim/runtime.h) — their ONLY implementation. eq::equality_test,
// eq::batch_equality_test, core::basic_intersection(_batch) and
// core::one_round_hash build a pair of these over views of the inputs and
// call sim::run_two_party; the tree parties (core/tree_parties.h) hand each
// stage's messages to them too.
//
// Each party holds ONLY views of its own input plus its view of the common
// random string, reads every received frame under the session's resource
// limits, and takes scratch from the session (sim::PartyEnv): every
// message is built in a buffer from env.pool, reserved once from its
// size, and is read only inside on_message (the runner recycles it
// afterwards). The views and the caller's arena frame must outlive the
// run.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "hashing/pairwise.h"
#include "sim/randomness.h"
#include "sim/runtime.h"
#include "util/set_util.h"

namespace setint::core {

// ---------- Fact 3.5 equality, batched ----------
//
// Instance i compares the hasher's strings[i] with the verifier's
// strings[i] on a `bits`-bit (>= 1) Toeplitz hash
// (hashing/toeplitz_hash.h). The hasher sends every hash in one message
// ("eq-hashes"), the verifier replies the verdict bitmap ("eq-verdicts"):
// two rounds for any count. h(x) = h(y) under one shared key whichever
// side hashes, so either party may play either role: standalone tests
// have Alice hash, the verification tree alternates by stage. Each party
// reads the strings only while producing its message — the hasher in
// start(), the verifier in on_message() — so callers may release them
// afterwards. The verdicts (true = declared equal) land in `verdicts`,
// which the caller owns and which must outlive the party: it is resized
// to the instance count and keeps its capacity, so a caller testing once
// per stage reuses it.

class EqualityParty : public sim::Party {
 public:
  EqualityParty(const sim::SharedRandomness& shared, std::uint64_t nonce,
                std::span<const util::BitSpan> strings, std::size_t bits,
                std::vector<bool>& verdicts, sim::PartyEnv env);
  bool done() const override { return done_; }
  // The verifier's verdicts, as this party knows them.
  const std::vector<bool>& verdicts() const { return verdicts_; }

 protected:
  sim::SharedRandomness shared_;
  std::uint64_t nonce_;
  std::span<const util::BitSpan> strings_;
  std::size_t bits_;
  std::vector<bool>& verdicts_;
  sim::PartyEnv env_;
  bool done_ = false;
};

class EqualityHasher final : public EqualityParty {
 public:
  using EqualityParty::EqualityParty;
  std::optional<sim::Outgoing> start() override;
  std::optional<sim::Outgoing> on_message(
      const util::BitBuffer& message) override;
};

class EqualityVerifier final : public EqualityParty {
 public:
  using EqualityParty::EqualityParty;
  std::optional<sim::Outgoing> on_message(
      const util::BitBuffer& message) override;
};

// ---------- one-round hashing (R^(1)) ----------
//
// k_bound is the public size bound (|S|, |T| <= k_bound); both parties
// must pass the same value or their hash functions desynchronize.

class OneRoundHashParty : public sim::Party {
 public:
  OneRoundHashParty(const sim::SharedRandomness& shared, std::uint64_t nonce,
                    std::uint64_t universe, util::SetView input,
                    std::uint64_t k_bound, int strength, sim::PartyEnv env);
  bool done() const override { return done_; }
  util::Set take_candidates() { return std::move(candidates_); }
  const util::Set& candidates() const { return candidates_; }

 protected:
  sim::Outgoing image_message(std::string_view label) const;
  void filter_by_peer_image(const util::BitBuffer& message);

  util::SetView input_;
  hashing::PairwiseHash hash_;
  sim::PartyEnv env_;
  std::span<std::uint64_t> vals_;  // hash_ of every input element
  bool done_ = false;
  util::Set candidates_;
};

class OneRoundHashAlice final : public OneRoundHashParty {
 public:
  using OneRoundHashParty::OneRoundHashParty;
  std::optional<sim::Outgoing> start() override;
  std::optional<sim::Outgoing> on_message(
      const util::BitBuffer& message) override;
};

class OneRoundHashBob final : public OneRoundHashParty {
 public:
  using OneRoundHashParty::OneRoundHashParty;
  std::optional<sim::Outgoing> on_message(
      const util::BitBuffer& message) override;
};

// ---------- Basic-Intersection (Lemma 3.3), batched ----------
//
// Instance j intersects the opener's sets[j] with the responder's
// sets[j], in three turns for any count:
//   opener    : sizes                                  (boundary 1)
//   responder : sizes, then hashed images, one turn    (boundary 2)
//   opener    : hashed images
// A party's sizes depend only on its own sets. Its images depend only on
// the two sizes, which fix every instance's hash function, and on its own
// sets; so the responder has all it needs for its images once it has read
// the opener's sizes. Each output is a filter of the party's own sets
// (Lemma 3.3 holds whatever order the images cross in). Either party may
// open: standalone Basic-Intersection has Alice open, the verification
// tree the stage's verifier. `self` names the party for its message
// labels (bi-sizes-a, bi-hashes-b, ...), `opener` the party that opens;
// a party re-armed with restart() may take the other role. Instances with
// an empty side send no image bits and end with empty candidates.
// Candidates live in the session's arena, in the caller's frame.

class BasicIntersectionParty final : public sim::Party {
 public:
  BasicIntersectionParty(const sim::SharedRandomness& shared,
                         std::uint64_t nonce, std::uint64_t universe,
                         std::span<const util::SetView> sets,
                         double target_failure, sim::PartyEnv env,
                         sim::PartyId self, sim::PartyId opener);
  // The opener's sizes.
  std::optional<sim::Outgoing> start() override;
  std::optional<sim::Outgoing> on_message(
      const util::BitBuffer& message) override;
  // The responder's images, after the sizes that answer the opener's.
  std::optional<sim::Outgoing> next() override;
  bool done() const override { return done_; }
  util::SetView candidate(std::size_t j) const {
    return instances_[j].candidate;
  }
  // Starts a fresh batch over `sets` in the same session and universe,
  // opened by `opener`, keeping the instance table's capacity: a caller
  // running one batch per stage re-arms one party instead of building a
  // new one.
  void restart(std::uint64_t nonce, std::span<const util::SetView> sets,
               double target_failure, sim::PartyId opener);

 private:
  struct Instance {
    unsigned width = 0;              // image bits per value; 0 = skipped
    std::span<std::uint64_t> vals;   // hash of every element
    util::SetView candidate;         // in the arena
  };

  bool opens() const { return opener_ == self_; }
  sim::Outgoing sizes_message(bool boundary) const;
  // Reads the peer's sizes, derives every instance's hash function and
  // hashes the own side. Throws std::invalid_argument on bits left after
  // the last size: an honest frame holds the sizes alone, and refusing a
  // forged one here stops the run before the images of its turn.
  void read_peer_sizes(const util::BitBuffer& message);
  sim::Outgoing images_message(bool boundary) const;
  void filter_by_peer_images(const util::BitBuffer& message);

  sim::SharedRandomness shared_;
  std::uint64_t nonce_;
  std::uint64_t universe_;
  std::span<const util::SetView> sets_;
  double target_failure_;
  sim::PartyEnv env_;
  sim::PartyId self_;
  sim::PartyId opener_;
  std::vector<Instance> instances_;
  bool sizes_known_ = false;
  bool done_ = false;
};

}  // namespace setint::core

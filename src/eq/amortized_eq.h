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
#include <optional>
#include <span>
#include <vector>

#include "core/checkpoint.h"
#include "core/parties.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "sim/runtime.h"
#include "util/bitio.h"

namespace setint::eq {

struct AmortizedEqStats {
  std::uint64_t levels = 0;
  std::uint64_t split_tests = 0;  // extra hash tests spent isolating culprits
};

// Instance i compares xs[i] (Alice) with ys[i] (Bob). Returns per-instance
// verdicts known to both parties; fills *stats if non-null. With a
// Checkpoint installed (tag "amortized_eq"), the runner saves a snapshot
// after every completed non-final level (phase = levels completed), and a
// crashed session resumes at the first unfinished level — each level
// draws from an independent nonce substream, so the resumed transcript is
// bit-identical to an uninterrupted one.
std::vector<bool> amortized_equality(sim::Channel& channel,
                                     const sim::SharedRandomness& shared,
                                     std::uint64_t nonce,
                                     const std::vector<util::BitBuffer>& xs,
                                     const std::vector<util::BitBuffer>& ys,
                                     AmortizedEqStats* stats = nullptr,
                                     core::Checkpoint* ckpt = nullptr);

// One endpoint of the merge tree, built from core::EqualityHasher and
// core::EqualityVerifier the way the tree parties are: each batched test
// is Alice's hashes and Bob's verdicts, metered under
// `amortized_eq/level=j[/binary_search]`. Bob flags his last message of
// every non-final level as a boundary. A party holds only its own
// strings, which must outlive it; a derived party may supply them later
// through begin() (the bucket-EQ parties).
class AmortizedEqParty : public sim::Party {
 public:
  AmortizedEqParty(bool alice, const sim::SharedRandomness& shared,
                   std::uint64_t nonce, std::span<const util::BitBuffer> side,
                   sim::PartyEnv env);
  std::optional<sim::Outgoing> start() override;
  std::optional<sim::Outgoing> on_message(
      const util::BitBuffer& message) override;
  bool done() const override { return done_; }
  // Per-instance verdicts and stats, final once done().
  const std::vector<bool>& verdicts() const { return equal_; }
  const AmortizedEqStats& stats() const { return stats_; }
  // The eq.* tracer metrics of this finished run.
  void emit_metrics(obs::Tracer* tracer) const;

 protected:
  // Starts the merge tree over `side`; with no strings the party is done.
  void begin(std::span<const util::BitBuffer> side);

  const bool alice_;
  sim::SharedRandomness shared_;
  sim::PartyEnv env_;

 private:
  // Groups of instance indices, flat: group g is
  // items[offsets[g], offsets[g + 1]).
  struct Groups {
    std::vector<std::size_t> items;
    std::vector<std::size_t> offsets{0};
    std::size_t size() const { return offsets.size() - 1; }
    std::span<const std::size_t> operator[](std::size_t g) const {
      return std::span(items).subspan(offsets[g], offsets[g + 1] - offsets[g]);
    }
    void add(std::span<const std::size_t> group) {
      items.insert(items.end(), group.begin(), group.end());
      offsets.push_back(items.size());
    }
  };
  std::uint64_t test_nonce() const;
  std::span<const util::BitSpan> contents();
  sim::Outgoing tagged(std::optional<sim::Outgoing> msg) const;
  // Applies a test's verdicts; true if a new level starts.
  bool advance(const std::vector<bool>& pass);

  std::uint64_t nonce_;
  std::span<const util::BitBuffer> side_;
  unsigned max_level_ = 0;
  unsigned level_ = 0;
  std::uint64_t batch_ = 0;  // tests run so far in this level
  Groups tested_;            // groups under the current test
  Groups survivors_;         // groups of this level that passed
  std::vector<util::BitBuffer> buffers_;  // contents() scratch
  std::vector<util::BitSpan> spans_;
  std::optional<core::EqualityHasher> eq_;  // Alice's pending test
  std::vector<bool> test_verdicts_;  // the last test's, reused by the next
  std::vector<bool> equal_;
  AmortizedEqStats stats_;
  bool done_ = false;
};

// One run as a steppable object: both parties, the sim::TwoPartyRun, the
// verdict check and the metrics. amortized_equality steps it to
// completion, the "amortized_eq" machine (core/engine.h) one level at a
// time. The strings, channel and checkpoint must outlive it.
class AmortizedEqRun {
 public:
  AmortizedEqRun(sim::Channel& channel, const sim::SharedRandomness& shared,
                 std::uint64_t nonce, std::span<const util::BitBuffer> xs,
                 std::span<const util::BitBuffer> ys,
                 core::Checkpoint* ckpt = nullptr);
  bool step();
  const std::vector<bool>& verdicts() const { return bob_.verdicts(); }
  const AmortizedEqStats& stats() const { return bob_.stats(); }

 private:
  sim::Channel& channel_;
  AmortizedEqParty alice_;
  AmortizedEqParty bob_;
  sim::TwoPartyRun run_;
};

}  // namespace setint::eq

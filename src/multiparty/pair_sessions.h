// The pair policy both multiparty topologies share (Corollaries 4.1 and
// 4.2 run one two-party session over different topologies). A
// PairSessions is built once per run and holds everything about a pair
// that is not topology: the plans and limits from MultipartyParams, the
// run's governance (one retry-token pool and one admission controller;
// each pair builds its own breaker, since both topologies pair a link at
// most once per run), the Byzantine player's binding, and the
// MultipartyResult's per-pair accounting. Every pair, certified or not,
// runs one VerifiedSessionDriver, so both topologies share its attempt
// loop. Internal to src/multiparty/.
#pragma once

#include <optional>

#include "multiparty/coordinator.h"

namespace setint::multiparty {

class PairSessions {
 public:
  // Validates every set and fixes the run's k bound (params.k_bound, or
  // the largest set, at least 2). The references must outlive the object;
  // costs are billed into the network's open batch.
  PairSessions(sim::Network& network, const sim::SharedRandomness& shared,
               std::uint64_t universe, const std::vector<util::Set>& sets,
               const MultipartyParams& params, MultipartyResult& result);

  std::size_t k() const { return k_; }

  // Gates pair (a, b) before it spends anything: returns whether it runs.
  // A permanently dead player or an admission shed under pool pressure
  // degrades the pair, charging both players.
  bool admit(std::size_t a, std::size_t b, std::uint64_t nonce);

  // Runs pair (a, b)'s session with a as Alice and b as Bob, bills it
  // into the open batch and accounts for it. With `certify` an attempt
  // passes on the 2k-bit certificate; without it, when its tree finishes
  // on trusted deliveries (the tournament's matches below the root).
  // Returns the answer that replaces a's set, or nullopt when a's set
  // must stand unchanged: the session was refused (its empty answer must
  // not reach an accumulator) or ended on the input-fallback rung. Any
  // other degraded answer is still a superset of the pair's
  // intersection.
  std::optional<util::Set> run(std::size_t a, std::size_t b,
                               std::uint64_t nonce, util::SetView sa,
                               util::SetView sb, bool certify);

  // Writes the pool totals; call once after the last pair.
  void finish();

 private:
  // Counts pair (a, b) as degraded and charges both players.
  void degrade(std::size_t a, std::size_t b);

  // Binds the Byzantine player to its channel role in pair (a, b); null
  // when neither player lies.
  sim::Adversary* adversary_for(std::size_t a, std::size_t b) const;

  sim::Network& network_;
  const sim::SharedRandomness& shared_;
  const std::uint64_t universe_;
  const MultipartyParams& params_;
  MultipartyResult& result_;
  obs::Tracer* tracer_;
  std::size_t k_;
  sim::ChaosPlan* chaos_;
  core::RetryBudgetPool pool_;
  core::AdmissionController admission_;
};

}  // namespace setint::multiparty

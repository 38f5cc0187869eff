// The pair policy both multiparty topologies share (Corollaries 4.1 and
// 4.2 run one certified two-party session over different topologies).
// A PairSessions is built once per run and holds everything about a pair
// that is not topology: the plans and limits from MultipartyParams, the
// run's governance (one retry-token pool, one breaker per link persisting
// across levels, one admission controller), the Byzantine player's
// binding, and the MultipartyResult's per-pair accounting. Internal to
// src/multiparty/.
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

  // Gates pair (a, b) before it spends anything. A permanently dead
  // player, an admission shed under pool pressure, or an open breaker
  // degrades the pair, charging both players, and returns nullopt.
  // Otherwise returns the pair's breaker (null when breakers are off).
  std::optional<core::CircuitBreaker*> admit(std::size_t a, std::size_t b,
                                             std::uint64_t nonce);

  // Runs the certified session with a as Alice and b as Bob, bills it and
  // accounts for it. A degraded answer is still a superset of the pair's
  // intersection. A refused pair returns nullopt: its empty answer must
  // not reach an accumulator.
  std::optional<util::Set> certified(std::size_t a, std::size_t b,
                                     std::uint64_t nonce, util::SetView sa,
                                     util::SetView sb);

  // Installs the run's plans, limits and the Byzantine player's role on
  // an uncertified match's channel between a (Alice) and b (Bob).
  void install(sim::Channel& channel, std::size_t a, std::size_t b);

  // Counts pair (a, b) as degraded and charges both players.
  void degrade(std::size_t a, std::size_t b);

  core::RetryBudgetPool& pool() { return pool_; }

  // Writes the pool and breaker totals; call once after the last pair.
  void finish();

 private:
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
  core::BreakerBoard breakers_;
  core::AdmissionController admission_;
};

}  // namespace setint::multiparty

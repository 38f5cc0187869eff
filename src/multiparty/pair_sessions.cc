#include "multiparty/pair_sessions.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/tracer.h"

namespace setint::multiparty {

PairSessions::PairSessions(sim::Network& network,
                           const sim::SharedRandomness& shared,
                           std::uint64_t universe,
                           const std::vector<util::Set>& sets,
                           const MultipartyParams& params,
                           MultipartyResult& result)
    : network_(network),
      shared_(shared),
      universe_(universe),
      params_(params),
      result_(result),
      // Attribution happens once, at the network billing layer; the pair
      // channels run untraced so bits are not double-counted.
      tracer_(network.tracer()),
      k_(params.k_bound),
      chaos_(params.chaos != nullptr && params.chaos->enabled() ? params.chaos
                                                                : nullptr),
      pool_(params.retry_pool_attempts),
      admission_(params.admission, &pool_) {
  if (params.fault_plan != nullptr &&
      params.fault_plan->players_needed() > network.players()) {
    throw std::invalid_argument(
        "multiparty: a fault plan overlay names a player the run does not "
        "have");
  }
  for (const util::Set& s : sets) {
    util::validate_set(s, universe);
    if (params.k_bound == 0) k_ = std::max(k_, s.size());
  }
  k_ = std::max<std::size_t>(k_, 2);
  result_.per_player_degraded.assign(sets.size(), 0);
}

bool PairSessions::admit(std::size_t a, std::size_t b, std::uint64_t nonce) {
  const char* skip = nullptr;
  if (chaos_ != nullptr &&
      (chaos_->player_dead(a) || chaos_->player_dead(b))) {
    // A permanently dead player cannot run the session at all.
    result_.dead_player_skips += 1;
    skip = "chaos.dead_player_skips";
  } else if (!admission_.admit(nonce)) {
    // Under critical pool pressure the pair is shed by seeded priority, a
    // pure function of (admission seed, pair nonce, pool level).
    result_.shed_pairs += 1;
    skip = "budget.shed";
  }
  if (skip != nullptr) {
    obs::count(tracer_, skip);
    degrade(a, b);
    return false;
  }
  if (adversary_for(a, b) != nullptr) obs::count(tracer_, "mp.byzantine_pairs");
  return true;
}

std::optional<util::Set> PairSessions::run(std::size_t a, std::size_t b,
                                           std::uint64_t nonce,
                                           util::SetView sa, util::SetView sb,
                                           bool certify) {
  core::CircuitBreaker breaker(params_.breaker);
  const SessionHooks hooks{
      .faults = params_.fault_plan,
      .adversary = adversary_for(a, b),
      .limits = &params_.limits,
      .chaos = chaos_,
      .player_a = a,
      .player_b = b,
      .checkpoint = params_.checkpoint,
      .budget = params_.budget,
      .retry_pool = pool_.enabled() ? &pool_ : nullptr,
      .breaker = &breaker};
  VerifiedRunResult vr =
      VerifiedSessionDriver(shared_, nonce, universe_, sa, sb, params_.tree,
                            k_, params_.retry, hooks, certify)
          .run();
  network_.bill_pairwise_in_batch(a, b, vr.cost);
  result_.breaker_opens += breaker.opens();
  result_.total_repetitions += vr.repetitions;
  result_.total_restarts += vr.restarts;
  result_.total_bits_replayed += vr.bits_replayed;
  obs::count(tracer_, "mp.pairwise_runs");
  obs::count(tracer_, "mp.repetitions", vr.repetitions);
  // The session's channel runs untraced, so its recovery counters are
  // raised here, from the result; one that did not move stays absent.
  if (vr.repetitions > 1) {
    obs::count(tracer_, "retry.attempts", vr.repetitions - 1);
  }
  if (breaker.opens() > 0) {
    obs::count(tracer_, "breaker.opens", breaker.opens());
  }
  if (vr.restarts > 0) obs::count(tracer_, "chaos.restarts", vr.restarts);
  if (vr.refused) {
    result_.refused_pairs += 1;
    obs::count(tracer_, "budget.refused_pairs");
  }
  if (vr.degraded || vr.refused) degrade(a, b);
  if (vr.refused || vr.rung == core::DegradeRung::kInputFallback) {
    return std::nullopt;
  }
  return std::move(vr.intersection);
}

void PairSessions::degrade(std::size_t a, std::size_t b) {
  // Honest accounting: a pair governed or degraded away charges BOTH
  // players, so no player's loss is hidden.
  result_.degraded_pairs += 1;
  result_.degraded = true;
  result_.per_player_degraded[a] += 1;
  result_.per_player_degraded[b] += 1;
  obs::count(tracer_, "mp.degraded_pairs");
}

void PairSessions::finish() {
  result_.pool_retry_denials = pool_.denials();
  if (pool_.enabled()) obs::count(tracer_, "budget.pool_spent", pool_.spent());
}

sim::Adversary* PairSessions::adversary_for(std::size_t a,
                                            std::size_t b) const {
  const std::size_t liar = params_.byzantine_player;
  if (params_.adversary == nullptr || (a != liar && b != liar)) return nullptr;
  params_.adversary->set_party(a == liar ? sim::PartyId::kAlice
                                         : sim::PartyId::kBob);
  return params_.adversary;
}

}  // namespace setint::multiparty

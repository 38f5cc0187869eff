#include "multiparty/tournament.h"

#include <algorithm>
#include <stdexcept>

#include "obs/tracer.h"
#include "sim/channel.h"
#include "util/rng.h"

namespace setint::multiparty {

namespace {

// One bracket level of one group's tournament. Matches are billed into the
// surrounding network batch (all groups advance their brackets in the same
// batch, so rounds reflect network-wide parallelism). Returns the players
// advancing to the next bracket level.
//
// Non-final matches are uncertified, so under an active fault plan a
// corrupted match could silently break the candidates-are-supersets
// invariant the root certificate relies on. Guard: any match whose
// exchange was fault-touched (or threw) is discarded and retried with
// fresh randomness; if the retry budget runs out the match is SKIPPED —
// the left player advances with its set unchanged, which keeps every
// carried set a superset of the true intersection at the price of a
// degraded (possibly strict-superset) final answer.
// Overload-governance state shared by every match of one tournament run
// (core/budget.h, core/breaker.h): one retry-token pool, per-link
// breakers persisting across bracket levels, one admission controller.
struct Governance {
  core::RetryBudgetPool pool;
  core::BreakerBoard breakers;
  core::AdmissionController admission;

  explicit Governance(const MultipartyParams& params)
      : pool(params.retry_pool_attempts),
        breakers(params.breaker),
        admission(params.admission, &pool) {}
};

std::vector<std::size_t> advance_bracket(
    sim::Network& network, const sim::SharedRandomness& shared,
    std::uint64_t universe, std::vector<util::Set>& current,
    const std::vector<std::size_t>& level,
    const MultipartyParams& params, std::size_t k, std::uint64_t level_nonce,
    sim::FaultPlan* faults, sim::ChaosPlan* chaos, Governance* gov,
    MultipartyResult* result) {
  std::vector<std::size_t> next;
  obs::Tracer* tracer = network.tracer();
  // Honest accounting: a match governed or degraded away charges BOTH
  // players (the loser's constraint is what the final answer lost).
  const auto charge_pair = [result](std::size_t x, std::size_t y) {
    result->per_player_degraded[x] += 1;
    result->per_player_degraded[y] += 1;
  };
  const core::ResourceLimits* limits =
      params.limits.enabled() ? &params.limits : nullptr;
  // Bind the Byzantine player (if any) to the channel role it holds in a
  // given match; matches between honest players run with no adversary.
  const auto bind_adversary = [&params](std::size_t left,
                                        std::size_t right) -> sim::Adversary* {
    if (params.adversary == nullptr) return nullptr;
    if (left == params.byzantine_player) {
      params.adversary->set_party(sim::PartyId::kAlice);
      return params.adversary;
    }
    if (right == params.byzantine_player) {
      params.adversary->set_party(sim::PartyId::kBob);
      return params.adversary;
    }
    return nullptr;
  };
  const bool final_level = level.size() == 2;
  for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
    const std::size_t left = level[i];
    const std::size_t right = level[i + 1];
    // Dead players can't play: the match is skipped and the left player
    // advances unchanged, preserving the carried-superset invariant.
    if (chaos != nullptr &&
        (chaos->player_dead(left) || chaos->player_dead(right))) {
      result->degraded_pairs += 1;
      result->degraded = true;
      result->dead_player_skips += 1;
      charge_pair(left, right);
      obs::count(tracer, "chaos.dead_player_skips");
      obs::count(tracer, "mp.degraded_pairs");
      obs::count(tracer, "mp.skipped_matches");
      next.push_back(left);
      continue;
    }
    const std::uint64_t nonce =
        util::mix64(level_nonce, util::mix64(left, right));
    // Admission control: shed the match before it spends anything when
    // the shared retry pool is critical. Left advances unchanged —
    // exactly the skipped-match degradation, paid up front.
    if (!gov->admission.admit(nonce)) {
      result->shed_pairs += 1;
      result->degraded_pairs += 1;
      result->degraded = true;
      charge_pair(left, right);
      obs::count(tracer, "budget.shed");
      obs::count(tracer, "mp.degraded_pairs");
      obs::count(tracer, "mp.skipped_matches");
      next.push_back(left);
      continue;
    }
    // Circuit-breaker gate: an open link goes straight to the skip.
    core::CircuitBreaker* match_breaker =
        gov->breakers.enabled() ? &gov->breakers.link(left, right) : nullptr;
    if (match_breaker != nullptr && !match_breaker->allow()) {
      result->breaker_short_circuits += 1;
      result->degraded_pairs += 1;
      result->degraded = true;
      charge_pair(left, right);
      obs::count(tracer, "breaker.short_circuits");
      obs::count(tracer, "mp.degraded_pairs");
      obs::count(tracer, "mp.skipped_matches");
      next.push_back(left);
      continue;
    }
    sim::Adversary* match_adversary = bind_adversary(left, right);
    if (match_adversary != nullptr) obs::count(tracer, "mp.byzantine_pairs");
    if (final_level) {
      // Root match: certified — exactness for the whole bracket follows
      // from the subset/superset invariants (see header).
      SessionHooks hooks;
      hooks.faults = faults;
      hooks.adversary = match_adversary;
      hooks.limits = limits;
      hooks.chaos = chaos;
      hooks.player_a = left;
      hooks.player_b = right;
      hooks.checkpoint = params.checkpoint;
      hooks.budget = params.budget;
      hooks.retry_pool = gov->pool.enabled() ? &gov->pool : nullptr;
      hooks.breaker = match_breaker;
      VerifiedRunResult vr = verified_two_party_intersection(
          shared, nonce, universe, current[left], current[right], params.tree,
          k, params.retry, hooks);
      network.bill_pairwise_in_batch(left, right, vr.cost);
      result->total_repetitions += vr.repetitions;
      result->total_restarts += vr.restarts;
      result->total_bits_replayed += vr.bits_replayed;
      obs::count(tracer, "mp.pairwise_runs");
      obs::count(tracer, "mp.repetitions", vr.repetitions);
      if (vr.refused) {
        result->refused_pairs += 1;
        obs::count(tracer, "budget.refused_pairs");
      }
      if (vr.degraded || vr.refused) {
        result->degraded_pairs += 1;
        result->degraded = true;
        charge_pair(left, right);
        obs::count(tracer, "mp.degraded_pairs");
      }
      // A refused final match carries left's set up unchanged (still a
      // superset) — the refusal's empty answer must not be intersected in.
      if (!vr.refused) {
        current[left] = std::move(vr.intersection);
      }
    } else {
      // The per-match attempt budget, taken literally: 0 attempts means
      // the match is skipped outright (honest degradation), mirroring the
      // certified-session semantics.
      const std::uint64_t tries = params.retry.max_attempts;
      bool advanced = false;
      for (std::uint64_t attempt = 0; attempt < tries && !advanced;
           ++attempt) {
        if (match_breaker != nullptr && !match_breaker->allow()) {
          obs::count(tracer, "breaker.denials");
          break;
        }
        if (attempt > 0 && gov->pool.enabled() && !gov->pool.try_acquire()) {
          obs::count(tracer, "budget.pool_denials");
          break;
        }
        sim::Channel channel;
        channel.set_fault_plan(faults);
        channel.set_adversary(match_adversary);
        channel.set_limits(limits);
        // Crash/partition blocks in an uncertified match surface as plain
        // exceptions below: the attempt burns and the match may end up
        // skipped — honest degradation without a per-match recovery loop.
        if (chaos != nullptr) channel.set_chaos(chaos, left, right);
        // Only damage that reached a decoder disqualifies the match: the
        // channel's integrity framing resends every damaged frame it
        // catches, and this snapshot closes the checksum-collision window.
        // Crafted frames disqualify it too: a semantic lie decodes cleanly
        // but can knock true elements out of the candidates, and an
        // uncertified match has no certificate to catch that.
        const auto content_events = [&channel, match_adversary] {
          std::uint64_t events = channel.undetected_damage();
          if (match_adversary != nullptr) {
            events += match_adversary->stats().frames_crafted;
          }
          return events;
        };
        const std::uint64_t before = content_events();
        if (attempt > 0) obs::count(tracer, "retry.attempts");
        try {
          // Inside the try: the backoff charge can breach max_rounds when
          // limits are installed, which discards the attempt.
          if (attempt > 0) {
            const core::BackoffPolicy schedule{
                params.retry.backoff_rounds, params.retry.backoff_multiplier,
                params.retry.backoff_cap_rounds, params.retry.backoff_jitter};
            channel.charge_extra_rounds(
                core::backoff_rounds_for_attempt(schedule, nonce, attempt));
          }
          const core::IntersectionOutput out =
              core::verification_tree_intersection(
                  channel, shared, util::mix64(nonce, attempt), universe,
                  current[left], current[right], params.tree);
          network.bill_pairwise_in_batch(left, right, channel.cost());
          if (content_events() == before) {
            current[left] = out.alice;
            current[right] = out.bob;
            advanced = true;
          }
          // Fault-touched: the traffic is billed, the suspect candidates
          // are discarded, and the match re-runs with a fresh nonce.
        } catch (const core::ResourceLimitError&) {
          network.bill_pairwise_in_batch(left, right, channel.cost());
          obs::count(tracer, "limit.breaches");
          obs::count(tracer, "retry.decode_failures");
        } catch (const std::exception&) {
          network.bill_pairwise_in_batch(left, right, channel.cost());
          obs::count(tracer, "retry.decode_failures");
        }
        if (match_breaker != nullptr) {
          if (advanced) {
            match_breaker->on_success();
          } else {
            const core::BreakerState before = match_breaker->state();
            match_breaker->on_failure();
            if (before != core::BreakerState::kOpen &&
                match_breaker->state() == core::BreakerState::kOpen) {
              obs::count(tracer, "breaker.opens");
            }
          }
        }
      }
      if (!advanced) {
        // Skipped match: left carries its set up unchanged (still a
        // superset); right's constraint is lost, so flag degradation.
        result->degraded_pairs += 1;
        result->degraded = true;
        charge_pair(left, right);
        obs::count(tracer, "mp.degraded_pairs");
        obs::count(tracer, "mp.skipped_matches");
      }
    }
    next.push_back(left);
  }
  if (level.size() % 2 == 1) next.push_back(level.back());
  return next;
}

}  // namespace

MultipartyResult tournament_intersection(sim::Network& network,
                                         const sim::SharedRandomness& shared,
                                         std::uint64_t universe,
                                         const std::vector<util::Set>& sets,
                                         const MultipartyParams& params) {
  if (sets.size() != network.players()) {
    throw std::invalid_argument("tournament: players/sets mismatch");
  }
  std::size_t k = params.k_bound;
  for (const util::Set& s : sets) {
    util::validate_set(s, universe);
    if (params.k_bound == 0) k = std::max(k, s.size());
  }
  k = std::max<std::size_t>(k, 2);
  const std::size_t group_size = 2 * k;

  MultipartyResult result;
  std::vector<std::size_t> active(sets.size());
  for (std::size_t i = 0; i < active.size(); ++i) active[i] = i;
  std::vector<util::Set> current = sets;

  // As in coordinator_intersection, attribution happens at the network
  // billing layer only.
  obs::Tracer* tracer = network.tracer();
  obs::Span protocol_span(tracer, "tournament");
  sim::FaultPlan* faults = params.fault_plan != nullptr
                               ? params.fault_plan
                               : network.fault_plan();
  sim::ChaosPlan* chaos =
      params.chaos != nullptr ? params.chaos : network.chaos_plan();
  if (chaos != nullptr && !chaos->enabled()) chaos = nullptr;

  Governance gov(params);
  result.per_player_degraded.assign(sets.size(), 0);

  while (active.size() > 1) {
    obs::Span level_span(tracer, "level=" + std::to_string(result.levels));
    // Partition active players into groups; every group runs its bracket
    // level-synchronously so that matches across ALL groups share batches.
    std::vector<std::vector<std::size_t>> brackets;
    for (std::size_t lo = 0; lo < active.size(); lo += group_size) {
      const std::size_t hi = std::min(lo + group_size, active.size());
      brackets.emplace_back(active.begin() + static_cast<std::ptrdiff_t>(lo),
                            active.begin() + static_cast<std::ptrdiff_t>(hi));
    }
    std::uint64_t depth = 0;
    while (std::any_of(brackets.begin(), brackets.end(),
                       [](const auto& b) { return b.size() > 1; })) {
      network.begin_batch();
      for (auto& bracket : brackets) {
        if (bracket.size() <= 1) continue;
        const std::uint64_t level_nonce = util::mix64(
            0x7031, util::mix64(result.levels, util::mix64(depth, bracket[0])));
        bracket = advance_bracket(network, shared, universe, current, bracket,
                                  params, k, level_nonce, faults, chaos, &gov,
                                  &result);
      }
      network.end_batch();
      ++depth;
    }
    std::vector<std::size_t> winners;
    winners.reserve(brackets.size());
    for (const auto& bracket : brackets) winners.push_back(bracket[0]);
    active = std::move(winners);
    result.levels += 1;
  }
  result.pool_retry_denials = gov.pool.denials();
  result.breaker_opens = gov.breakers.total_opens();
  if (gov.pool.enabled()) {
    obs::count(tracer, "budget.pool_spent", gov.pool.spent());
  }
  result.intersection = current[active[0]];
  return result;
}

}  // namespace setint::multiparty

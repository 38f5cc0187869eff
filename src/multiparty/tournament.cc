#include "multiparty/tournament.h"

#include <algorithm>
#include <stdexcept>

#include "multiparty/pair_sessions.h"
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
std::vector<std::size_t> advance_bracket(
    sim::Network& network, const sim::SharedRandomness& shared,
    std::uint64_t universe, std::vector<util::Set>& current,
    const std::vector<std::size_t>& level, const MultipartyParams& params,
    std::uint64_t level_nonce, PairSessions& pairs) {
  std::vector<std::size_t> next;
  obs::Tracer* tracer = network.tracer();
  const bool final_level = level.size() == 2;
  for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
    const std::size_t left = level[i];
    const std::size_t right = level[i + 1];
    next.push_back(left);
    const std::uint64_t nonce =
        util::mix64(level_nonce, util::mix64(left, right));
    // A skipped match (dead player, shed, open breaker) carries left's set
    // up unchanged: still a superset of the true intersection.
    const std::optional<core::CircuitBreaker*> admitted =
        pairs.admit(left, right, nonce);
    if (!admitted) {
      obs::count(tracer, "mp.skipped_matches");
      continue;
    }
    if (final_level) {
      // Root match: certified — exactness for the whole bracket follows
      // from the subset/superset invariants (see header). A refused root
      // carries left's set up unchanged.
      if (std::optional<util::Set> answer = pairs.certified(
              left, right, nonce, current[left], current[right])) {
        current[left] = std::move(*answer);
      }
      continue;
    }
    core::CircuitBreaker* breaker = *admitted;
    // The per-match attempt budget, taken literally: 0 attempts means the
    // match is skipped outright (honest degradation), mirroring the
    // certified-session semantics.
    bool advanced = false;
    for (std::uint64_t attempt = 0;
         attempt < params.retry.max_attempts && !advanced; ++attempt) {
      if (breaker != nullptr && !breaker->allow()) {
        obs::count(tracer, "breaker.denials");
        break;
      }
      if (attempt > 0 && !pairs.pool().try_acquire()) {
        obs::count(tracer, "budget.pool_denials");
        break;
      }
      // Crash/partition blocks in an uncertified match surface as plain
      // exceptions below: the attempt burns and the match may end up
      // skipped — honest degradation without a per-match recovery loop.
      sim::Channel channel;
      pairs.install(channel, left, right);
      if (attempt > 0) obs::count(tracer, "retry.attempts");
      try {
        // Inside the try: the backoff charge can breach max_rounds when
        // limits are installed, which discards the attempt.
        if (attempt > 0) {
          channel.charge_extra_rounds(
              core::backoff_rounds_for_attempt(params.retry, nonce, attempt));
        }
        const core::IntersectionOutput out =
            core::verification_tree_intersection(
                channel, shared, util::mix64(nonce, attempt), universe,
                current[left], current[right], params.tree);
        // Only an untrusted delivery disqualifies the match: damage that
        // slipped past the integrity check, or a crafted frame, which
        // decodes cleanly but can knock true elements out of the
        // candidates. An uncertified match has no certificate to catch
        // either, so its candidates are discarded and it re-runs with a
        // fresh nonce.
        if (channel.untrusted_deliveries() == 0) {
          current[left] = out.alice;
          current[right] = out.bob;
          advanced = true;
        }
      } catch (const core::ResourceLimitError&) {
        obs::count(tracer, "limit.breaches");
        obs::count(tracer, "retry.decode_failures");
      } catch (const std::exception&) {
        obs::count(tracer, "retry.decode_failures");
      }
      // Every attempt's traffic is billed, discarded or not.
      network.bill_pairwise_in_batch(left, right, channel.cost());
      if (breaker != nullptr) {
        if (advanced) {
          breaker->on_success();
        } else if (breaker->on_failure()) {
          obs::count(tracer, "breaker.opens");
        }
      }
    }
    if (!advanced) {
      // Skipped match: left carries its set up unchanged (still a
      // superset); right's constraint is lost, so flag degradation.
      pairs.degrade(left, right);
      obs::count(tracer, "mp.skipped_matches");
    }
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
  MultipartyResult result;
  PairSessions pairs(network, shared, universe, sets, params, result);
  const std::size_t group_size = 2 * pairs.k();
  std::vector<std::size_t> active(sets.size());
  for (std::size_t i = 0; i < active.size(); ++i) active[i] = i;
  std::vector<util::Set> current = sets;

  obs::Tracer* tracer = network.tracer();
  obs::Span protocol_span(tracer, "tournament");
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
                                  params, level_nonce, pairs);
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
  pairs.finish();
  result.intersection = current[active[0]];
  return result;
}

}  // namespace setint::multiparty

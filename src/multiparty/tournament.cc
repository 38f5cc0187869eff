#include "multiparty/tournament.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "multiparty/pair_sessions.h"
#include "obs/tracer.h"
#include "util/rng.h"

namespace setint::multiparty {

namespace {

// One bracket level of one group's tournament. Matches are billed into the
// surrounding network batch (all groups advance their brackets in the same
// batch, so rounds reflect network-wide parallelism). Returns the players
// advancing to the next bracket level.
//
// Only the root match is certified (see header). A match below it runs the
// same pair session with the certificate off, which discards any attempt
// that met an untrusted delivery: such an attempt could break the
// candidates-are-supersets invariant the root certificate relies on. A
// match that is not admitted, refused, or ends on its input-fallback rung
// is SKIPPED: the left player advances with its set unchanged, which keeps
// every carried set a superset of the true intersection at the price of a
// flagged, possibly strict, superset.
std::vector<std::size_t> advance_bracket(std::vector<util::Set>& current,
                                         const std::vector<std::size_t>& level,
                                         std::uint64_t level_nonce,
                                         PairSessions& pairs,
                                         obs::Tracer* tracer) {
  std::vector<std::size_t> next;
  const bool root = level.size() == 2;
  for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
    const std::size_t left = level[i];
    const std::size_t right = level[i + 1];
    next.push_back(left);
    const std::uint64_t nonce =
        util::mix64(level_nonce, util::mix64(left, right));
    std::optional<util::Set> answer;
    if (pairs.admit(left, right, nonce)) {
      answer = pairs.run(left, right, nonce, current[left], current[right],
                         /*certify=*/root);
    }
    if (answer) {
      current[left] = std::move(*answer);
    } else {
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
        bracket =
            advance_bracket(current, bracket, level_nonce, pairs, tracer);
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

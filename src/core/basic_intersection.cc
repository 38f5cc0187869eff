#include "core/basic_intersection.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/parties.h"
#include "obs/tracer.h"
#include "sim/runtime.h"
#include "util/arena.h"

namespace setint::core {

// Hash range giving pairwise-collision failure <= target_failure: with
// <= m^2/4 cross pairs at <= 2/t collision probability each (the factor 2
// is the Carter-Wegman mod-fold slack), t = m^2 / (2 * target_failure)
// suffices. Clamped to 2^62: beyond that the collision probability is
// already negligible and prime sampling would overflow.
std::uint64_t basic_intersection_range(std::uint64_t total_size,
                                       double target_failure) {
  if (total_size < 2) return 2;
  const double t =
      std::min(0x1p62, static_cast<double>(total_size) *
                           static_cast<double>(total_size) /
                           (2.0 * target_failure));
  return std::max<std::uint64_t>(2, static_cast<std::uint64_t>(std::ceil(t)));
}

std::vector<CandidatePair> basic_intersection_batch(
    sim::Channel& channel, const sim::SharedRandomness& shared,
    std::uint64_t nonce, std::uint64_t universe,
    std::span<const std::pair<util::SetView, util::SetView>> pairs,
    double target_failure, Checkpoint* ckpt) {
  if (!(target_failure > 0.0) || !(target_failure < 1.0)) {
    throw std::invalid_argument("basic_intersection: failure must be in (0,1)");
  }
  const std::size_t n = pairs.size();
  std::vector<CandidatePair> result(n);
  if (n == 0) return result;

  obs::count(channel.tracer(), "bi.batches");
  obs::count(channel.tracer(), "bi.instances", n);

  // Alice's views first, then Bob's.
  std::vector<util::SetView> sides(2 * n);
  for (std::size_t j = 0; j < n; ++j) {
    sides[j] = pairs[j].first;
    sides[n + j] = pairs[j].second;
  }
  const std::span<const util::SetView> views(sides);
  util::ScratchArena::Frame scratch_frame(channel.scratch());
  const sim::PartyEnv env(channel);
  BasicIntersectionAlice alice(shared, nonce, universe, views.first(n),
                               target_failure, env);
  BasicIntersectionBob bob(shared, nonce, universe, views.last(n),
                           target_failure, env);
  // Crash resume (tag "bi"): phase 1 = sizes exchanged, phase 2 = sizes +
  // Alice's images exchanged.
  sim::run_two_party(channel, alice, bob, 4, ckpt, "bi");
  for (std::size_t j = 0; j < n; ++j) {
    result[j].s_candidate.assign(alice.candidate(j).begin(),
                                 alice.candidate(j).end());
    result[j].t_candidate.assign(bob.candidate(j).begin(),
                                 bob.candidate(j).end());
  }
  return result;
}

CandidatePair basic_intersection(sim::Channel& channel,
                                 const sim::SharedRandomness& shared,
                                 std::uint64_t nonce, std::uint64_t universe,
                                 util::SetView s, util::SetView t,
                                 double target_failure, Checkpoint* ckpt) {
  util::validate_set(s, universe);
  util::validate_set(t, universe);
  const std::pair<util::SetView, util::SetView> one[] = {{s, t}};
  return basic_intersection_batch(channel, shared, nonce, universe, one,
                                  target_failure, ckpt)[0];
}

}  // namespace setint::core

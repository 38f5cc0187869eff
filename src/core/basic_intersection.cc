#include "core/basic_intersection.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/tracer.h"

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

namespace {

std::vector<util::SetView> alice_then_bob(
    std::span<const std::pair<util::SetView, util::SetView>> pairs,
    double target_failure) {
  if (!(target_failure > 0.0) || !(target_failure < 1.0)) {
    throw std::invalid_argument("basic_intersection: failure must be in (0,1)");
  }
  const std::size_t n = pairs.size();
  std::vector<util::SetView> sides(2 * n);
  for (std::size_t j = 0; j < n; ++j) {
    sides[j] = pairs[j].first;
    sides[n + j] = pairs[j].second;
  }
  return sides;
}

}  // namespace

// Crash resume (tag "bi"): phase 1 = Alice's sizes delivered, phase 2 =
// Bob's turn (his sizes and images) delivered.
BasicIntersectionRun::BasicIntersectionRun(
    sim::Channel& channel, const sim::SharedRandomness& shared,
    std::uint64_t nonce, std::uint64_t universe,
    std::span<const std::pair<util::SetView, util::SetView>> pairs,
    double target_failure, Checkpoint* ckpt)
    : sides_(alice_then_bob(pairs, target_failure)),
      frame_(channel.scratch()),
      alice_(shared, nonce, universe,
             std::span<const util::SetView>(sides_).first(pairs.size()),
             target_failure, sim::PartyEnv(channel), sim::PartyId::kAlice,
             sim::PartyId::kAlice),
      bob_(shared, nonce, universe,
           std::span<const util::SetView>(sides_).last(pairs.size()),
           target_failure, sim::PartyEnv(channel), sim::PartyId::kBob,
           sim::PartyId::kAlice),
      run_(channel, alice_, bob_, 4, ckpt, "bi") {
  obs::count(channel.tracer(), "bi.batches");
  obs::count(channel.tracer(), "bi.instances", pairs.size());
}

CandidatePair BasicIntersectionRun::candidates(std::size_t j) const {
  return {util::Set(alice_.candidate(j).begin(), alice_.candidate(j).end()),
          util::Set(bob_.candidate(j).begin(), bob_.candidate(j).end())};
}

std::vector<CandidatePair> basic_intersection_batch(
    sim::Channel& channel, const sim::SharedRandomness& shared,
    std::uint64_t nonce, std::uint64_t universe,
    std::span<const std::pair<util::SetView, util::SetView>> pairs,
    double target_failure, Checkpoint* ckpt) {
  std::vector<CandidatePair> result(pairs.size());
  if (pairs.empty()) {
    alice_then_bob(pairs, target_failure);  // validates the target
    return result;
  }
  BasicIntersectionRun run(channel, shared, nonce, universe, pairs,
                           target_failure, ckpt);
  while (!run.step()) {
  }
  for (std::size_t j = 0; j < pairs.size(); ++j) result[j] = run.candidates(j);
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

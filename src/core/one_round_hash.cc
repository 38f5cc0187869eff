#include "core/one_round_hash.h"

#include <algorithm>

#include "core/parties.h"
#include "obs/tracer.h"
#include "sim/runtime.h"
#include "util/arena.h"

namespace setint::core {

IntersectionOutput one_round_hash(sim::Channel& channel,
                                  const sim::SharedRandomness& shared,
                                  std::uint64_t nonce, std::uint64_t universe,
                                  util::SetView s, util::SetView t,
                                  int strength) {
  validate_instance(universe, s, t);
  const std::uint64_t k_bound = std::max(s.size(), t.size());
  util::ScratchArena::Frame scratch_frame(channel.scratch());
  const sim::PartyEnv env(channel);
  OneRoundHashAlice alice(shared, nonce, universe, s, k_bound, strength, env);
  OneRoundHashBob bob(shared, nonce, universe, t, k_bound, strength, env);
  obs::Span protocol_span(channel.tracer(), "one_round_hash");
  sim::run_two_party(channel, alice, bob, 2);
  return {alice.take_candidates(), bob.take_candidates()};
}

RunResult OneRoundHashProtocol::run(std::uint64_t seed, std::uint64_t universe,
                                    util::SetView s, util::SetView t) const {
  sim::Channel channel;
  sim::SharedRandomness shared(seed);
  RunResult r;
  r.output = one_round_hash(channel, shared, /*nonce=*/0, universe, s, t,
                            strength_);
  r.cost = channel.cost();
  return r;
}

}  // namespace setint::core

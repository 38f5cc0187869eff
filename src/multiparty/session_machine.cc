#include "multiparty/session_machine.h"

#include "util/rng.h"

namespace setint::multiparty {

VerifiedSessionMachine::VerifiedSessionMachine(SessionMachineConfig cfg)
    : cfg_(std::move(cfg)),
      shared_(cfg_.seed),
      driver_(shared_, cfg_.nonce, cfg_.universe, util::SetView(cfg_.s),
              util::SetView(cfg_.t), cfg_.tree, cfg_.k_bound, cfg_.retry,
              cfg_.hooks) {
  driver_.channel().enable_digest();
}

std::uint64_t fingerprint_verified_result(const VerifiedRunResult& r) {
  std::uint64_t h = core::fingerprint_set(0x5e55, r.intersection);
  h = util::mix64(h, r.repetitions);
  h = util::mix64(h, (r.verified ? 1u : 0u) | (r.degraded ? 2u : 0u) |
                         (r.refused ? 4u : 0u) | (r.peer_lost ? 8u : 0u));
  h = util::mix64(h, static_cast<std::uint64_t>(r.rung));
  h = util::mix64(h, static_cast<std::uint64_t>(r.budget_reason));
  return h;
}

std::uint64_t VerifiedSessionMachine::result_fingerprint() const {
  return fingerprint_verified_result(result());
}

}  // namespace setint::multiparty

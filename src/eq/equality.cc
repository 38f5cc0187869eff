#include "eq/equality.h"

#include <cmath>
#include <stdexcept>

#include "core/parties.h"
#include "sim/runtime.h"

namespace setint::eq {

std::size_t bits_for_failure(double target_failure) {
  if (!(target_failure > 0.0) || target_failure >= 1.0) {
    return 1;
  }
  const double b = std::ceil(std::log2(1.0 / target_failure));
  return b < 1.0 ? 1 : static_cast<std::size_t>(b);
}

bool equality_test(sim::Channel& channel, const sim::SharedRandomness& shared,
                   std::uint64_t nonce, util::BitSpan xa, util::BitSpan xb,
                   std::size_t bits) {
  return batch_equality_test(channel, shared, nonce, {&xa, 1}, {&xb, 1},
                             bits)[0];
}

std::vector<bool> batch_equality_test(sim::Channel& channel,
                                      const sim::SharedRandomness& shared,
                                      std::uint64_t nonce,
                                      std::span<const util::BitSpan> xa,
                                      std::span<const util::BitSpan> xb,
                                      std::size_t bits) {
  if (xa.size() != xb.size()) {
    throw std::invalid_argument("batch_equality_test: size mismatch");
  }
  if (bits == 0) throw std::invalid_argument("batch_equality_test: 0 bits");
  if (xa.empty()) return {};

  const sim::PartyEnv env(channel);
  std::vector<bool> alice_verdicts;
  std::vector<bool> bob_verdicts;
  core::EqualityAlice alice(shared, nonce, xa, bits, alice_verdicts, env);
  core::EqualityBob bob(shared, nonce, xb, bits, bob_verdicts, env);
  sim::run_two_party(channel, alice, bob, 2);
  // Both parties now hold the verdicts; they must agree.
  if (alice_verdicts != bob_verdicts) {
    throw std::logic_error("equality verdict mismatch");
  }
  return bob_verdicts;
}

}  // namespace setint::eq

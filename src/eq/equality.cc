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

namespace {

// Runs the batched test with `opener` hashing its side and returns the
// verdicts, which both parties must hold alike.
std::vector<bool> run_test(sim::Channel& channel,
                           const sim::SharedRandomness& shared,
                           std::uint64_t nonce,
                           std::span<const util::BitSpan> xa,
                           std::span<const util::BitSpan> xb,
                           std::size_t bits, sim::PartyId opener) {
  const bool alice_hashes = opener == sim::PartyId::kAlice;
  const sim::PartyEnv env(channel);
  std::vector<bool> hasher_verdicts;
  std::vector<bool> verifier_verdicts;
  core::EqualityHasher hasher(shared, nonce, alice_hashes ? xa : xb, bits,
                              hasher_verdicts, env);
  core::EqualityVerifier verifier(shared, nonce, alice_hashes ? xb : xa, bits,
                                  verifier_verdicts, env);
  sim::Party& alice = alice_hashes ? static_cast<sim::Party&>(hasher)
                                   : static_cast<sim::Party&>(verifier);
  sim::Party& bob = alice_hashes ? static_cast<sim::Party&>(verifier)
                                 : static_cast<sim::Party&>(hasher);
  sim::run_two_party(channel, alice, bob, 2, nullptr, {}, opener);
  // Both parties now hold the verdicts; they must agree.
  if (hasher_verdicts != verifier_verdicts) {
    throw std::logic_error("equality verdict mismatch");
  }
  return verifier_verdicts;
}

}  // namespace

bool equality_test(sim::Channel& channel, const sim::SharedRandomness& shared,
                   std::uint64_t nonce, util::BitSpan xa, util::BitSpan xb,
                   std::size_t bits, sim::PartyId opener) {
  if (bits == 0) throw std::invalid_argument("equality_test: 0 bits");
  return run_test(channel, shared, nonce, {&xa, 1}, {&xb, 1}, bits,
                  opener)[0];
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
  return run_test(channel, shared, nonce, xa, xb, bits, sim::PartyId::kAlice);
}

}  // namespace setint::eq

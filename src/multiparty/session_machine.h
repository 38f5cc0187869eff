// The certified multiparty session as a sans-IO protocol machine.
//
// VerifiedSessionMachine steps a multiparty::VerifiedSessionDriver: each
// ProtocolMachine::step() calls driver.step(), which advances the session
// to the next stage boundary of the current attempt's verification tree
// (or through the certificate, the next attempt's first stage, or the
// ladder). The blocking verified_two_party_intersection() steps the same
// driver to completion, so everything it produces — VerifiedRunResult,
// checkpoint.*/budget.* metrics, the transcript digest — matches the
// machine's bit for bit; tests/sansio_test.cc pins this under fault,
// chaos and budget hooks, with and without checkpoints.
//
// The machine owns copies of its inputs and its SharedRandomness, so a
// scheduler can hold 10^5 of them with no external lifetime obligations
// beyond the SessionHooks pointers (tracer/faults/chaos/...), which the
// caller must keep alive for the machine's lifetime — same contract as
// the blocking call.
#pragma once

#include <cstdint>

#include "core/engine.h"
#include "multiparty/coordinator.h"

namespace setint::multiparty {

struct SessionMachineConfig {
  std::uint64_t seed = 1;   // SharedRandomness master seed
  std::uint64_t nonce = 0;
  std::uint64_t universe = std::uint64_t{1} << 20;
  util::Set s;
  util::Set t;
  core::VerificationTreeParams tree;
  std::size_t k_bound = 0;  // 0 = auto (max input size)
  core::RetryPolicy retry;
  SessionHooks hooks;       // pointers must outlive the machine
};

class VerifiedSessionMachine final : public core::ProtocolMachine {
 public:
  explicit VerifiedSessionMachine(SessionMachineConfig cfg);

  std::string_view kind() const override { return "verified_session"; }
  sim::Channel& channel() override { return driver_.channel(); }
  const VerifiedRunResult& result() const { return driver_.result(); }

  // Hash over the answer AND its contract flags: a superset that arrives
  // flagged verified (or vice versa) must not compare equal.
  std::uint64_t result_fingerprint() const override;

 protected:
  bool advance() override { return driver_.step(); }

 private:
  SessionMachineConfig cfg_;
  sim::SharedRandomness shared_;
  VerifiedSessionDriver driver_;
};

// The same fingerprint over a blocking run's result, for differential
// comparison.
std::uint64_t fingerprint_verified_result(const VerifiedRunResult& r);

}  // namespace setint::multiparty

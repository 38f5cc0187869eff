// Per-link circuit breaker: closed -> open -> half-open.
//
// A breaker watches attempt outcomes on one (unordered) player pair and
// trips after `failure_threshold` consecutive failures. While open it
// denies attempts outright — the pair's session (or uncertified match)
// goes straight down the degradation ladder instead of burning retry
// tokens on a link the evidence says is dead. After `cooldown` denied
// probes the breaker moves to half-open and admits a single trial
// attempt: success (then `close_after - 1` more) closes it, failure
// re-opens it.
//
//            failure_threshold                cooldown denials
//   CLOSED ---------------------> OPEN -------------------------> HALF-OPEN
//     ^  ^                         ^                                  |  |
//     |  '--- success resets ---'  '---------- trial fails ----------'  |
//     '----------------- close_after trial successes ------------------'
//
// Determinism: there is no wall clock. "Cooldown" is counted in denied
// allow() calls, which in this simulator are a pure function of the
// protocol/fault/chaos seeds — so breaker trajectories replay exactly
// (docs/ROBUSTNESS.md § overload governance).
#pragma once

#include <cstdint>

namespace setint::core {

enum class BreakerState : std::uint8_t { kClosed = 0, kOpen, kHalfOpen };

struct BreakerPolicy {
  // Consecutive failures before the breaker trips; 0 disables it
  // (allow() always true, outcomes ignored).
  std::uint64_t failure_threshold = 0;
  // Denied allow() calls an open breaker absorbs before letting a
  // half-open probe through.
  std::uint64_t cooldown = 4;
  // Consecutive half-open successes required to fully close again.
  std::uint64_t close_after = 1;

  bool enabled() const { return failure_threshold != 0; }
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(const BreakerPolicy& policy = {})
      : policy_(policy) {}

  // Gate an attempt. Closed: always true. Open: false for `cooldown`
  // calls, then transitions to half-open and admits the probe.
  // Half-open: admits (the probe's outcome decides what happens next).
  bool allow();

  // Outcome feedback for an attempt that allow() admitted. on_success()
  // returns true when it closed the breaker, on_failure() when it opened
  // it.
  bool on_success();
  bool on_failure();

  BreakerState state() const { return state_; }
  const BreakerPolicy& policy() const { return policy_; }

  std::uint64_t opens() const { return opens_; }          // closed/half->open
  std::uint64_t closes() const { return closes_; }        // half-open->closed
  std::uint64_t half_opens() const { return half_opens_; }
  std::uint64_t denials() const { return denials_; }      // allow()==false

 private:
  BreakerPolicy policy_;
  BreakerState state_ = BreakerState::kClosed;
  std::uint64_t consecutive_failures_ = 0;
  std::uint64_t open_denials_ = 0;      // denials since last trip
  std::uint64_t trial_successes_ = 0;   // successes while half-open
  std::uint64_t opens_ = 0;
  std::uint64_t closes_ = 0;
  std::uint64_t half_opens_ = 0;
  std::uint64_t denials_ = 0;
};

}  // namespace setint::core

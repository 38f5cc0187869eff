#include "core/breaker.h"

#include <algorithm>

namespace setint::core {

bool CircuitBreaker::allow() {
  if (!policy_.enabled()) return true;
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kHalfOpen:
      // One probe is in flight conceptually; in this single-threaded
      // simulator every call while half-open is a legitimate trial.
      return true;
    case BreakerState::kOpen:
      if (open_denials_ + 1 >= std::max<std::uint64_t>(1, policy_.cooldown)) {
        state_ = BreakerState::kHalfOpen;
        trial_successes_ = 0;
        ++half_opens_;
        return true;
      }
      ++open_denials_;
      ++denials_;
      return false;
  }
  return true;
}

bool CircuitBreaker::on_success() {
  if (!policy_.enabled()) return false;
  if (state_ == BreakerState::kHalfOpen) {
    ++trial_successes_;
    if (trial_successes_ >= std::max<std::uint64_t>(1, policy_.close_after)) {
      state_ = BreakerState::kClosed;
      consecutive_failures_ = 0;
      ++closes_;
      return true;
    }
    return false;
  }
  consecutive_failures_ = 0;
  return false;
}

bool CircuitBreaker::on_failure() {
  if (!policy_.enabled()) return false;
  if (state_ == BreakerState::kHalfOpen) {
    // Failed probe: straight back to open for a fresh cooldown.
    state_ = BreakerState::kOpen;
    open_denials_ = 0;
    consecutive_failures_ = policy_.failure_threshold;
    ++opens_;
    return true;
  }
  ++consecutive_failures_;
  if (state_ == BreakerState::kClosed &&
      consecutive_failures_ >= policy_.failure_threshold) {
    state_ = BreakerState::kOpen;
    open_denials_ = 0;
    ++opens_;
    return true;
  }
  return false;
}

}  // namespace setint::core

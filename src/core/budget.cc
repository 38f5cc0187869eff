#include "core/budget.h"

#include <algorithm>
#include <cmath>

#include "sim/chaos.h"
#include "util/rng.h"

namespace setint::core {

const char* degrade_rung_name(DegradeRung rung) {
  switch (rung) {
    case DegradeRung::kExact:
      return "exact";
    case DegradeRung::kFlaggedSuperset:
      return "flagged_superset";
    case DegradeRung::kInputFallback:
      return "input_fallback";
    case DegradeRung::kRefused:
      return "refused";
  }
  return "unknown";
}

const char* budget_dimension_name(BudgetDimension dim) {
  switch (dim) {
    case BudgetDimension::kNone:
      return "none";
    case BudgetDimension::kBits:
      return "bits";
    case BudgetDimension::kRounds:
      return "rounds";
    case BudgetDimension::kDeadline:
      return "deadline";
    case BudgetDimension::kPool:
      return "pool";
    case BudgetDimension::kAttempts:
      return "attempts";
  }
  return "unknown";
}

SessionBudget::SessionBudget(const SessionBudgetSpec& spec,
                             const sim::CostStats* cost,
                             const sim::ChaosPlan* clock)
    : spec_(spec), cost_(cost), clock_(clock) {}

void SessionBudget::check() {
  if (cost_ != nullptr) bits_observed_ = cost_->bits_total;
  if (reason_ != BudgetDimension::kNone) {
    throw BudgetExhaustedError(
        reason_, std::string("session budget exhausted: ") +
                     budget_dimension_name(reason_));
  }
  if (cost_ != nullptr) {
    if (spec_.max_bits != 0 && cost_->bits_total > spec_.max_bits) {
      reason_ = BudgetDimension::kBits;
      throw BudgetExhaustedError(
          reason_, "session bit budget exhausted: spent " +
                       std::to_string(cost_->bits_total) + " of " +
                       std::to_string(spec_.max_bits) + " bits");
    }
    if (spec_.max_rounds != 0 && cost_->rounds > spec_.max_rounds) {
      reason_ = BudgetDimension::kRounds;
      throw BudgetExhaustedError(
          reason_, "session round budget exhausted: spent " +
                       std::to_string(cost_->rounds) + " of " +
                       std::to_string(spec_.max_rounds) + " rounds");
    }
  }
  if (spec_.deadline_ticks != 0) {
    // The deadline clock: chaos logical ticks when a plan is installed
    // (one tick per attempted send, advanced across outage waits), else
    // the channel round clock.
    const std::uint64_t now =
        clock_ != nullptr ? clock_->now()
                          : (cost_ != nullptr ? cost_->rounds : 0);
    if (now > spec_.deadline_ticks) {
      reason_ = BudgetDimension::kDeadline;
      throw BudgetExhaustedError(
          reason_, "session deadline exceeded: tick " + std::to_string(now) +
                       " past deadline " +
                       std::to_string(spec_.deadline_ticks));
    }
  }
}

void SessionBudget::mark_exhausted(BudgetDimension dimension) {
  if (reason_ == BudgetDimension::kNone) reason_ = dimension;
}

std::uint64_t backoff_rounds_for_attempt(const RetryPolicy& policy,
                                         std::uint64_t seed,
                                         std::uint64_t attempt) {
  if (policy.backoff_rounds == 0 || attempt == 0) return 0;
  const double multiplier = std::max(1.0, policy.backoff_multiplier);
  double step = static_cast<double>(policy.backoff_rounds);
  // Iterative growth (attempts are small) avoids pow() cross-platform
  // rounding drift; saturate at the cap instead of overflowing.
  const double cap = policy.backoff_cap_rounds != 0
                         ? static_cast<double>(policy.backoff_cap_rounds)
                         : static_cast<double>(UINT64_MAX);
  for (std::uint64_t i = 1; i < attempt && step < cap; ++i) {
    step *= multiplier;
  }
  step = std::min(step, cap);
  std::uint64_t rounds = static_cast<std::uint64_t>(step);
  const double jitter = std::clamp(policy.backoff_jitter, 0.0, 1.0);
  if (jitter > 0.0 && rounds > 0) {
    const std::uint64_t span =
        static_cast<std::uint64_t>(jitter * static_cast<double>(rounds)) + 1;
    rounds += util::mix64(seed ^ 0xB0FFu, attempt) % span;
  }
  return rounds;
}

bool RetryBudgetPool::try_acquire() {
  if (!enabled()) return true;
  if (spent_ >= capacity_) {
    ++denials_;
    return false;
  }
  ++spent_;
  return true;
}

double RetryBudgetPool::remaining_fraction() const {
  if (!enabled()) return 1.0;
  return static_cast<double>(remaining()) / static_cast<double>(capacity_);
}

bool AdmissionController::admit(std::uint64_t nonce) {
  if (!enabled()) return true;
  const double threshold = shed_fraction();
  if (threshold > 0.0) {
    // Seeded priority in [0, 1): pairs whose priority falls below the
    // shed threshold are rejected. Pure function of (seed, nonce) and the
    // pool level, so identical runs shed identical pairs.
    const std::uint64_t h = util::mix64(policy_.seed, nonce);
    const double priority =
        static_cast<double>(h >> 11) / static_cast<double>(1ull << 53);
    if (priority < threshold) {
      ++shed_;
      return false;
    }
  }
  return true;
}

double AdmissionController::shed_fraction() const {
  if (!enabled()) return 0.0;
  const double fraction = pool_->remaining_fraction();
  if (fraction >= policy_.critical_fraction) return 0.0;
  return 1.0 - fraction / policy_.critical_fraction;
}

}  // namespace setint::core

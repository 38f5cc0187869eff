// Overload governance: per-session resource budgets, the seeded
// exponential-backoff retry schedule, the coordinator-level shared retry
// pool, and deterministic admission control.
//
// The retry/degradation layer (core/retry.h) bounds how hard ONE session
// tries; this header bounds what a session — and a whole multiparty run —
// may *spend* while trying. Four pieces (docs/ROBUSTNESS.md § overload
// governance):
//
// 1. `SessionBudgetSpec` / `SessionBudget` — per-session caps on bits,
//    rounds and a simulated wall-clock deadline, checked by sim::Channel
//    before every send of a session's attempts
//    (multiparty/coordinator.h). Exhaustion throws `BudgetExhaustedError`
//    before the send that would go past a cap, which the recovery layer
//    routes into the degradation ladder instead of the next attempt. The
//    retry-count budget stays where it always lived,
//    `RetryPolicy::max_attempts`.
// 2. `backoff_rounds_for_attempt` — a deterministic seeded
//    exponential-backoff-with-jitter schedule over RetryPolicy's backoff
//    knobs. The default policy (multiplier 1, no jitter) reproduces the
//    flat `backoff_rounds` charge bit-for-bit.
// 3. `RetryBudgetPool` — a shared pool of retry tokens across the m-1
//    pairwise sessions of one coordinator/tournament run, so one
//    pathological link cannot starve every healthy session of its retry
//    budget.
// 4. `AdmissionPolicy` / `AdmissionController` — when the pool drains
//    below a critical fraction, new pair-sessions are shed
//    deterministically by seeded priority before they spend anything,
//    with honest per-player degradation accounting.
//
// The degradation ladder itself is named by `DegradeRung`: every run ends
// on exactly one rung, each step cheaper (and more approximate) than the
// last — exact answer, flagged Lemma-3.3 superset, zero-communication
// input-fallback superset, or an explicit ResourceExhausted-style refusal
// (`SessionBudgetSpec::refuse_on_exhaustion`).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/retry.h"
#include "sim/transcript.h"

namespace setint::sim {
class ChaosPlan;
}  // namespace setint::sim

namespace setint::core {

// Which rung of the degradation ladder a run ended on. Ordered: every
// step down is cheaper and weaker than the one above it.
enum class DegradeRung : std::uint8_t {
  kExact = 0,          // verified (certificate or deterministic backstop)
  kFlaggedSuperset,    // Lemma-3.3 best-effort superset, honestly flagged
  kInputFallback,      // the caller's own input — the free superset
  kRefused,            // explicit refusal: no answer rather than a weak one
};

// Stable lowercase name ("exact", "flagged_superset", ...).
const char* degrade_rung_name(DegradeRung rung);

// The budget dimension that tripped first (sticky per session).
enum class BudgetDimension : std::uint8_t {
  kNone = 0,
  kBits,      // SessionBudgetSpec::max_bits
  kRounds,    // SessionBudgetSpec::max_rounds
  kDeadline,  // SessionBudgetSpec::deadline_ticks
  kPool,      // the shared RetryBudgetPool ran dry
  kAttempts,  // RetryPolicy::max_attempts (reported, never thrown)
};

const char* budget_dimension_name(BudgetDimension dim);

// Thrown by SessionBudget::check() when a cap is exceeded. The recovery
// layer catches it and descends the degradation ladder — it must never
// escape verified_two_party_intersection.
class BudgetExhaustedError : public std::runtime_error {
 public:
  BudgetExhaustedError(BudgetDimension dimension, const std::string& what)
      : std::runtime_error(what), dimension(dimension) {}

  BudgetDimension dimension;
};

// Per-session spending caps. All caps use 0 = unlimited;
// a default-constructed spec is disabled and free.
struct SessionBudgetSpec {
  // Total channel bits the session's attempts may spend (certificates and
  // replayed-after-crash bits included — the channel counter is
  // monotonic, so a checkpoint resume charges the replayed bits exactly
  // once). The degradation ladder runs after exhaustion, uncapped.
  std::uint64_t max_bits = 0;

  // Total rounds (message alternations plus charged latency: backoff,
  // injected delays, outage waits).
  std::uint64_t max_rounds = 0;

  // Simulated wall-clock deadline. The clock is the chaos plan's logical
  // tick clock when one is installed (one tick per attempted send,
  // advanced past outages by the recovery layer), else the channel round
  // clock — both deterministic, both monotone.
  std::uint64_t deadline_ticks = 0;

  // Strict-SLA mode: on budget exhaustion skip the degraded superset
  // rungs entirely and return an explicit refusal (DegradeRung::kRefused,
  // empty answer). Default: descend the ladder and return the best
  // affordable superset.
  bool refuse_on_exhaustion = false;

  bool enabled() const {
    return max_bits != 0 || max_rounds != 0 || deadline_ticks != 0;
  }
  bool operator==(const SessionBudgetSpec&) const = default;
};

// One session's live budget: wraps the channel's monotonic CostStats (and
// optionally the chaos clock) and throws when a cap is crossed. The
// channel it is attached to (sim::Channel::set_budget) checks it on
// entry to every send, so a session stops before its first send past a
// cap and overshoots by at most the one send that crossed it.
class SessionBudget {
 public:
  // `cost` is the session channel's live counter (not owned, must outlive
  // the budget); `clock` is the optional chaos plan providing the
  // deadline tick clock (not owned, may be null).
  SessionBudget(const SessionBudgetSpec& spec, const sim::CostStats* cost,
                const sim::ChaosPlan* clock = nullptr);

  // Throws BudgetExhaustedError on the first cap crossed; records the
  // tripped dimension (sticky) so repeated checks re-throw consistently.
  void check();

  // True once any dimension has tripped.
  bool exhausted() const { return reason_ != BudgetDimension::kNone; }
  BudgetDimension reason() const { return reason_; }

  // Marks the budget exhausted without a cap of its own having fired —
  // used when the shared pool denies a retry token (kPool) or the
  // per-session attempt budget dies (kAttempts), so the ladder descent
  // has one uniform reason record.
  void mark_exhausted(BudgetDimension dimension);

  // Channel bits observed at the last check — equals the channel's
  // bits_total, which counts crash-replayed bits exactly once (pinned by
  // tests/checkpoint_test.cc).
  std::uint64_t bits_observed() const { return bits_observed_; }

  const SessionBudgetSpec& spec() const { return spec_; }

 private:
  SessionBudgetSpec spec_;
  const sim::CostStats* cost_;
  const sim::ChaosPlan* clock_;
  BudgetDimension reason_ = BudgetDimension::kNone;
  std::uint64_t bits_observed_ = 0;
};

// Deterministic seeded exponential-backoff-with-jitter schedule over the
// RetryPolicy's backoff knobs. Retry attempt `attempt` (1-based: the
// first RE-attempt is 1) waits
//   step   = min(backoff_rounds * backoff_multiplier^(attempt-1),
//                backoff_cap_rounds)
//   jitter = hash(seed, attempt) mod (backoff_jitter * step + 1)
// rounds before running. Defaults (multiplier 1, jitter 0) reproduce the
// PR-2 flat schedule exactly; `backoff_rounds == 0` stays free whatever
// the other knobs say. Pure function of its arguments — replayable.
std::uint64_t backoff_rounds_for_attempt(const RetryPolicy& policy,
                                         std::uint64_t seed,
                                         std::uint64_t attempt);

// Shared retry-token pool for one multiparty run. Every RE-attempt (not
// first tries) in every pairwise session draws one token; when the pool
// runs dry, sessions stop retrying and degrade instead — one dead link
// can burn its own session's budget but not the whole run's.
// Single-threaded by design, like the coordinator that owns it.
class RetryBudgetPool {
 public:
  // capacity 0 = disabled: try_acquire always succeeds and the pool never
  // reports pressure.
  explicit RetryBudgetPool(std::uint64_t capacity) : capacity_(capacity) {}

  bool enabled() const { return capacity_ != 0; }

  // Takes one retry token; false (and a recorded denial) when empty.
  bool try_acquire();

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t spent() const { return spent_; }
  std::uint64_t remaining() const {
    return capacity_ > spent_ ? capacity_ - spent_ : 0;
  }
  std::uint64_t denials() const { return denials_; }

  // 1.0 when disabled or untouched, 0.0 when dry.
  double remaining_fraction() const;

 private:
  std::uint64_t capacity_;
  std::uint64_t spent_ = 0;
  std::uint64_t denials_ = 0;
};

// Deterministic load shedding for coordinator/tournament pair-sessions.
// While the shared pool holds at least `critical_fraction` of its tokens
// every session is admitted; below that, sessions are shed with
// probability rising linearly to 1 as the pool approaches empty. The
// shed decision for a pair is a pure hash of (seed, pair nonce) against
// the current threshold — seeded priority, no RNG state — so reruns shed
// the same pairs and the bench determinism contract holds.
struct AdmissionPolicy {
  double critical_fraction = 0.0;  // 0 = admission control off
  std::uint64_t seed = 0xAD31;
};

class AdmissionController {
 public:
  // `pool` not owned, may be null (admission control needs a pool to
  // measure pressure; without one every session is admitted).
  AdmissionController(const AdmissionPolicy& policy,
                      const RetryBudgetPool* pool)
      : policy_(policy), pool_(pool) {}

  bool enabled() const {
    return policy_.critical_fraction > 0.0 && pool_ != nullptr &&
           pool_->enabled();
  }

  // Deterministic admit/shed decision for the pair-session identified by
  // `nonce`. Records shed sessions.
  bool admit(std::uint64_t nonce);

  // Current shed probability in [0, 1] — 0 while the pool is healthy.
  double shed_fraction() const;

  std::uint64_t shed() const { return shed_; }

 private:
  AdmissionPolicy policy_;
  const RetryBudgetPool* pool_;
  std::uint64_t shed_ = 0;
};

}  // namespace setint::core

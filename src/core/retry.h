// Retry and graceful-degradation policy for certified protocol runs.
//
// The verification-tree protocol plus its 2k-bit certificate is a
// detector: on a reliable channel a failed certificate means a hash
// collision; on an unreliable one (sim/fault.h) it additionally catches
// corrupted candidates, and corrupted messages usually fail to decode at
// all (std::invalid_argument / std::out_of_range from the hardened
// decoders). Either way the sound response is the same — retry the whole
// certified run with fresh randomness — and this policy bounds how hard
// the recovery layer tries before it degrades to an honestly-flagged
// superset answer. Semantics are specified in docs/ROBUSTNESS.md.
#pragma once

#include <cstdint>

namespace setint::core {

struct RetryPolicy {
  // Certified attempts (verification tree + certificate, fresh nonce each
  // time) before giving up. Replaces the old hard-coded kMaxRepetitions.
  // Taken literally: 0 means NO certified attempts — the session goes
  // straight to the deterministic backstop (reliable channel) or the
  // degradation ladder (hostile transport), with zero retry.* activity
  // (pinned by tests/robustness_test.cc). The default is sized for the
  // BENCH_faults acceptance bar: at flip rate 1e-3/bit an attempt survives
  // the integrity check with probability ~0.17 even without the channel's
  // link-level resends (which only raise it), so 40 attempts leave
  // < 1e-3 exhaustion probability (>= 99% verified); a reliable channel
  // never uses more than one plus the rare certificate collision.
  std::uint64_t max_attempts = 40;

  // Extra latency rounds charged to the channel before every re-attempt —
  // the cost model of a backoff timer on a real link. 0 = immediate retry.
  // This is the BASE of the backoff schedule; with the default growth
  // knobs below the schedule is flat (every re-attempt waits exactly this
  // long), matching the original policy bit-for-bit.
  std::uint64_t backoff_rounds = 0;

  // Exponential growth factor applied per re-attempt: re-attempt n waits
  // backoff_rounds * backoff_multiplier^(n-1) rounds, capped below.
  // 1.0 (default) keeps the flat schedule.
  double backoff_multiplier = 1.0;

  // Cap on the deterministic backoff step. 0 = uncapped.
  std::uint64_t backoff_cap_rounds = 4096;

  // Fraction of each step randomized by deterministic seeded jitter
  // (core::backoff_rounds_for_attempt). 0.0 (default) = no jitter; the
  // jitter draw is a pure hash of (session seed, attempt), so identical
  // runs wait identically.
  double backoff_jitter = 0.0;

  // Best-effort Basic-Intersection runs the degradation path may spend
  // looking for a fault-free superset (Lemma 3.3) after `max_attempts` is
  // exhausted under an active fault plan. If none survives, the caller's
  // own input set — the one superset that needs no communication — is
  // returned instead.
  std::uint64_t degraded_attempts = 4;

  // Chaos recovery (sim/chaos.h). Crash/partition blocks within one
  // certified attempt are waited out and resumed (from the last phase
  // checkpoint when one is installed) up to this many times per session
  // before the peer is declared lost and the run degrades.
  std::uint64_t max_restarts = 16;

  // A restart is only waited for if the blocked link heals within this
  // many latency rounds (charged to the channel like backoff_rounds);
  // longer outages are treated as a lost peer.
  std::uint64_t max_resume_wait_rounds = 4096;

  bool operator==(const RetryPolicy&) const = default;
};

}  // namespace setint::core

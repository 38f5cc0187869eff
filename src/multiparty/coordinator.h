// Multi-party set intersection, coordinator variant (Corollary 4.1).
//
// Players are partitioned into groups of at most 2k; each group's first
// player coordinates, running the (amplified) two-party protocol with
// every other member in parallel and intersecting the verified results.
// Coordinators then recurse among themselves. The number of active
// players drops by a factor 2k per level, so total communication is
// dominated by the first level: O(k log^(r) k) average bits per player,
// rounds O(r * max(1, log(m)/log(k))), success 1 - 1/2^k via the 2k-bit
// verification equality checks.
//
// This header also holds the certified two-party session both topologies
// run on their pairs. The pair policy lives in multiparty/pair_sessions.h;
// coordinator_intersection keeps only its groups, the accumulator and the
// broadcast.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include <cstddef>

#include "core/breaker.h"
#include "core/budget.h"
#include "core/checkpoint.h"
#include "core/resource_limits.h"
#include "core/retry.h"
#include "core/tree_parties.h"
#include "core/verification_tree.h"
#include "sim/channel.h"
#include "obs/tracer.h"
#include "sim/adversary.h"
#include "sim/chaos.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/randomness.h"
#include "util/set_util.h"

namespace setint::obs {
class FlightRecorder;
}  // namespace setint::obs

namespace setint::multiparty {

// Two-party intersection amplified to success 1 - 2^-Theta(k): runs the
// verification-tree protocol, then a 2k-bit equality certificate on the
// two candidates; by the Corollary 3.4 invariant, equal candidates ARE the
// intersection, so a passing certificate certifies exactness. Failed
// certificates (hash collisions, or corruption when a fault plan is
// active) trigger re-runs with fresh randomness, bounded by the
// RetryPolicy. On a reliable channel a deterministic-exchange backstop
// guarantees exact termination; under an active fault plan budget
// exhaustion instead degrades to an honestly-flagged superset
// (verified = false, degraded = true) — see docs/ROBUSTNESS.md.
struct VerifiedRunResult {
  util::Set intersection;
  sim::CostStats cost;
  std::uint64_t repetitions = 1;  // certified attempts consumed
  bool verified = true;   // certificate (or exact backstop) vouches for it
  bool degraded = false;  // superset-only answer after budget exhaustion

  // Chaos recovery accounting (zero without an installed ChaosPlan).
  std::uint64_t restarts = 0;       // crash/partition blocks waited out
  std::uint64_t bits_replayed = 0;  // bits re-sent past the last checkpoint
  bool peer_lost = false;  // peer never came back; degraded without retries

  // Overload governance (core/budget.h): the degradation-ladder rung the
  // session ended on, and — when a session budget tripped — which
  // dimension. `refused` is the bottom rung: the session returned NO
  // answer (empty set, verified=false, degraded=false) because
  // SessionBudgetSpec::refuse_on_exhaustion asked for an explicit
  // ResourceExhausted over a weak superset.
  core::DegradeRung rung = core::DegradeRung::kExact;
  bool refused = false;
  core::BudgetDimension budget_reason = core::BudgetDimension::kNone;
};

// Environment for one certified session. None of the pointers are owned.
//
//   tracer    — installed on the internal channel, so phase spans and
//               metrics from the whole certified run (repetitions,
//               certificate, recovery) land under the caller's span.
//   faults    — fault plan (sim/fault.h): iid damage, bursts and per-link
//               overlays on this pair's link; makes the channel unreliable.
//   adversary — makes one PARTY Byzantine (sim/adversary.h); because a
//               Byzantine peer could feed the deterministic-exchange
//               backstop lying bytes, an enabled adversary — like an
//               enabled fault plan or chaos plan — routes budget
//               exhaustion into the honest degraded path instead.
//   limits    — resource caps installed on the channel; breaches burn a
//               retry attempt like any decode failure.
//   recorder  — flight recorder (obs/recorder.h); besides the channel's
//               own events it receives kRetry/kBackstop/kDegrade/kRestart
//               markers from this recovery layer, and a degradation fires
//               FlightRecorder::incident().
//   chaos     — crash/partition schedule (sim/chaos.h) driving the
//               session clock; player_a/player_b name this pair's global
//               player ids, the link both plans read. A crash or
//               partition mid-attempt is waited out
//               (retry.max_resume_wait_rounds) and the attempt resumes
//               from its last phase checkpoint — or from scratch when
//               `checkpoint` is false — up to
//               retry.max_restarts times; a permanently dead peer yields
//               peer_lost + the degraded input-fallback superset.
//   budget    — per-session spending caps (core/budget.h), enforced at
//               every verification-tree stage boundary and between
//               attempts, with or without a checkpoint. Exhaustion ends
//               certified attempts, skips the backstop (which would spend
//               more), and descends the degradation ladder — or refuses
//               outright when refuse_on_exhaustion is set.
//   retry_pool— shared coordinator-level retry-token pool; every
//               RE-attempt draws one token, and a dry pool ends this
//               session's retries (budget_reason = kPool).
//   breaker   — per-link circuit breaker. The session feeds it attempt
//               outcomes (on_success on a passing certificate, on_failure
//               otherwise) and honors allow() before every attempt; both
//               multiparty topologies additionally gate whole pairs on it.
struct SessionHooks {
  obs::Tracer* tracer = nullptr;
  sim::FaultPlan* faults = nullptr;
  sim::Adversary* adversary = nullptr;
  const core::ResourceLimits* limits = nullptr;
  obs::FlightRecorder* recorder = nullptr;
  sim::ChaosPlan* chaos = nullptr;
  std::size_t player_a = 0;
  std::size_t player_b = 1;
  bool checkpoint = true;  // phase-boundary resume (core/checkpoint.h)
  core::SessionBudgetSpec budget;
  core::RetryBudgetPool* retry_pool = nullptr;
  core::CircuitBreaker* breaker = nullptr;
};

VerifiedRunResult verified_two_party_intersection(
    const sim::SharedRandomness& shared, std::uint64_t nonce,
    std::uint64_t universe, util::SetView s, util::SetView t,
    const core::VerificationTreeParams& params, std::size_t k_bound,
    const core::RetryPolicy& retry = {}, const SessionHooks& hooks = {});

// The certified session — attempt loop, 2k-bit certificate, backstop,
// degradation ladder — as one steppable object. step() advances the
// session to the next stage boundary of the current attempt's
// verification tree (a core::VerificationTreeRun held in place) or to the
// end; run() steps it to completion, which is all
// verified_two_party_intersection does. The sans-IO machine
// (multiparty/session_machine.h) steps the same object, so the blocking
// and the stepped session cannot drift apart.
//
// Session budgets are checked between attempts and after every stage
// boundary, whether or not a checkpoint is installed.
//
// Lifetime: `shared`, the SetView inputs and every SessionHooks pointer
// must outlive the driver.
class VerifiedSessionDriver {
 public:
  VerifiedSessionDriver(const sim::SharedRandomness& shared,
                        std::uint64_t nonce, std::uint64_t universe,
                        util::SetView s, util::SetView t,
                        const core::VerificationTreeParams& params,
                        std::size_t k_bound, const core::RetryPolicy& retry,
                        const SessionHooks& hooks);

  // The whole session in one call.
  VerifiedRunResult run();

  // Advances to the next stage boundary; returns true once the session
  // has finished and result() is final.
  bool step();

  const VerifiedRunResult& result() const { return result_; }
  sim::Channel& channel() { return channel_; }

 private:
  // Returns true when the step ends inside the attempt loop (at a stage
  // boundary, or with a certified answer); false when control falls
  // through to the ladder.
  bool step_attempts();
  // Advances the current attempt: true when the step ends in it (at a
  // stage boundary, or certified), false when its certificate failed.
  bool step_attempt();
  void run_ladder();
  void finish();
  bool wait_out_block(std::uint64_t resume_tick, const char* what);

  const sim::SharedRandomness& shared_;
  const std::uint64_t nonce_;
  const std::uint64_t universe_;
  const util::SetView s_;
  const util::SetView t_;
  const core::VerificationTreeParams params_;
  const std::size_t k_bound_;
  const core::RetryPolicy retry_;
  const SessionHooks hooks_;

  obs::Tracer* tracer_;
  obs::FlightRecorder* recorder_;
  sim::ChaosPlan* chaos_;
  sim::Channel channel_;
  obs::Span span_;
  core::SessionBudget budget_;
  bool budget_enabled_;
  core::RetryBudgetPool* pool_;
  core::CircuitBreaker* breaker_;
  core::Checkpoint ckpt_store_;
  core::Checkpoint* ckpt_;

  VerifiedRunResult result_;
  std::uint64_t restarts_used_ = 0;
  std::uint64_t attempt_start_bits_ = 0;
  bool breaker_denied_ = false;

  std::uint64_t rep_ = 0;        // current attempt index
  bool attempt_live_ = false;    // current attempt still running
  bool backoff_due_ = false;
  // The current attempt's verification tree; rebuilt (resuming from the
  // checkpoint, if any) after a crash.
  std::optional<core::VerificationTreeRun> vt_;
  bool done_ = false;
};

struct MultipartyParams {
  core::VerificationTreeParams tree;  // two-party sub-protocol parameters
  std::size_t k_bound = 0;            // 0 = auto: max input set size

  // If true, the final coordinator broadcasts the result so EVERY player
  // ends up holding the intersection (one extra parallel round; m-1
  // messages of |result| * O(log(n/|result|)) bits).
  bool broadcast_result = false;

  // Retry/degradation budget for every certified two-party sub-run.
  core::RetryPolicy retry;

  // Fault plan (not owned) installed on every pair channel of the run, so
  // one deterministic fault stream covers the whole m-party run. Pair
  // channels name their link by global player indices, which is what the
  // plan's bursts and per-link overlays (set_link_faults) key on. An
  // overlay naming a player >= network.players() throws
  // std::invalid_argument before any pair runs.
  sim::FaultPlan* fault_plan = nullptr;

  // Byzantine player model (docs/ROBUSTNESS.md): `adversary` (not owned)
  // replaces player index `byzantine_player`'s outbound frames in every
  // pairwise sub-run that player participates in. The adversary is
  // rebound (Adversary::set_party) to whichever channel role that player
  // holds in each pair; pairs of honest players run clean. Invariant the
  // tests pin: a lying player can only corrupt results derived from its
  // own input — with an honest root the final intersection is still a
  // subset of every honest player's set.
  sim::Adversary* adversary = nullptr;
  std::size_t byzantine_player = static_cast<std::size_t>(-1);

  // Resource limits installed on every internal pairwise channel. Default
  // (all zero) is disabled and free.
  core::ResourceLimits limits;

  // Chaos plan (not owned) installed on every pair channel of the run.
  // Pairs are addressed inside the plan by their global player indices; a
  // pair with a permanently dead player is skipped (the accumulator keeps
  // the superset invariant) and counted in dead_player_skips.
  sim::ChaosPlan* chaos = nullptr;

  // Phase-boundary checkpointing for chaos recovery (core/checkpoint.h).
  bool checkpoint = true;

  // ---- Overload governance (core/budget.h, core/breaker.h) ----

  // Per-session spending caps applied to every pairwise sub-run. Default
  // (all zero) is disabled and free.
  core::SessionBudgetSpec budget;

  // Shared retry-token pool capacity across ALL pairwise sessions of this
  // run; 0 = unlimited. With a pool, one pathological link can exhaust
  // its own session's attempts but not starve the other m-1 sessions.
  std::uint64_t retry_pool_attempts = 0;

  // Per-link circuit breaker policy (failure_threshold 0 = disabled).
  // Both topologies pair a link at most once per run, so each pair gets
  // a fresh breaker: once it opens, that pair stops spending attempts
  // (and pool tokens) and takes the degradation ladder.
  core::BreakerPolicy breaker;

  // Deterministic admission control: when the retry pool drains below
  // admission.critical_fraction, new pair-sessions are shed by seeded
  // priority before they start (critical_fraction 0 = off).
  core::AdmissionPolicy admission;
};

struct MultipartyResult {
  util::Set intersection;
  std::size_t levels = 0;
  std::uint64_t total_repetitions = 0;  // two-party re-runs across all pairs
  std::uint64_t broadcast_bits = 0;     // 0 unless broadcast_result was set

  // Degradation accounting: pairwise sub-runs (coordinator) or matches
  // (tournament) that exhausted their retry budget or were skipped because
  // every attempt was fault-touched. When degraded is true the
  // intersection is still ALWAYS a superset of the true m-way
  // intersection, but may be strict.
  std::uint64_t degraded_pairs = 0;
  bool degraded = false;

  // Chaos recovery accounting across all pairwise sub-runs.
  std::uint64_t total_restarts = 0;
  std::uint64_t total_bits_replayed = 0;
  std::uint64_t dead_player_skips = 0;

  // Overload-governance accounting. Shed and refused pairs are also
  // counted in degraded_pairs (the accumulator skipped them, so the
  // answer is a flagged superset).
  std::uint64_t shed_pairs = 0;          // admission control rejections
  std::uint64_t refused_pairs = 0;       // sessions ending on kRefused
  std::uint64_t pool_retry_denials = 0;  // dry-pool retry denials
  std::uint64_t breaker_opens = 0;       // breaker trips across pairs

  // Honest per-player accounting: per_player_degraded[p] counts the
  // pairwise sub-runs involving global player p that ended degraded,
  // shed, refused or dead-skipped — both endpoints of a
  // governed-away pair are charged, so no player's loss is hidden.
  std::vector<std::uint64_t> per_player_degraded;
};

// Computes the m-way intersection of `sets` (each a subset of [universe)).
// Costs land in `network` (per-player bits + batched rounds).
MultipartyResult coordinator_intersection(sim::Network& network,
                                          const sim::SharedRandomness& shared,
                                          std::uint64_t universe,
                                          const std::vector<util::Set>& sets,
                                          const MultipartyParams& params = {});

}  // namespace setint::multiparty

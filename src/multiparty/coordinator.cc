#include "multiparty/coordinator.h"

#include <algorithm>
#include <stdexcept>

#include "core/basic_intersection.h"
#include "core/checkpoint.h"
#include "core/deterministic_exchange.h"
#include "eq/equality.h"
#include "obs/recorder.h"
#include "sim/channel.h"
#include "util/arena.h"
#include "util/bitio.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint::multiparty {

VerifiedRunResult verified_two_party_intersection(
    const sim::SharedRandomness& shared, std::uint64_t nonce,
    std::uint64_t universe, util::SetView s, util::SetView t,
    const core::VerificationTreeParams& params, std::size_t k_bound,
    const core::RetryPolicy& retry, const SessionHooks& hooks) {
  VerifiedSessionDriver driver(shared, nonce, universe, s, t, params, k_bound,
                               retry, hooks);
  return driver.run();
}

VerifiedSessionDriver::VerifiedSessionDriver(
    const sim::SharedRandomness& shared, std::uint64_t nonce,
    std::uint64_t universe, util::SetView s, util::SetView t,
    const core::VerificationTreeParams& params, std::size_t k_bound,
    const core::RetryPolicy& retry, const SessionHooks& hooks)
    : shared_(shared),
      nonce_(nonce),
      universe_(universe),
      s_(s),
      t_(t),
      params_(params),
      k_bound_(k_bound == 0 ? std::max<std::size_t>({s.size(), t.size(), 2})
                            : k_bound),
      retry_(retry),
      hooks_(hooks),
      tracer_(hooks.tracer),
      faults_(hooks.faults),
      adversary_(hooks.adversary),
      recorder_(hooks.recorder),
      chaos_(hooks.chaos != nullptr && hooks.chaos->enabled() ? hooks.chaos
                                                              : nullptr),
      channel_(),
      span_(tracer_, "verified_intersection"),
      // Session budget (core/budget.h): reads the channel's monotonic cost
      // counter, so bits replayed after a checkpoint resume are charged
      // exactly once — the channel meters them once. The chaos plan, when
      // installed, is the deadline clock.
      budget_(hooks.budget, &channel_.cost(), chaos_),
      budget_enabled_(hooks.budget.enabled()),
      pool_(hooks.retry_pool),
      breaker_(hooks.breaker != nullptr && hooks.breaker->policy().enabled()
                   ? hooks.breaker
                   : nullptr),
      // Phase-boundary checkpoint store, shared by every attempt. It earns
      // its keep under chaos — iid faults corrupt single messages (the
      // retry loop is the right tool), while crash/partition blocks lose
      // whole half-finished sessions that a snapshot can rescue. Budgeted
      // sessions install it as well and report its checkpoint.* metrics.
      ckpt_((chaos_ != nullptr || budget_enabled_) && hooks.checkpoint
                ? &ckpt_store_
                : nullptr) {
  channel_.set_tracer(tracer_);
  channel_.set_recorder(recorder_);
  channel_.set_fault_plan(faults_);
  channel_.set_adversary(adversary_);
  if (hooks_.limits != nullptr && hooks_.limits->enabled()) {
    channel_.set_limits(hooks_.limits);
  }
  if (chaos_ != nullptr) {
    channel_.set_chaos(chaos_, hooks_.player_a, hooks_.player_b);
  }
  result_.repetitions = 0;
}

void VerifiedSessionDriver::finish() {
  result_.cost = channel_.cost();
  result_.budget_reason = budget_.reason();
  if (ckpt_ != nullptr) {
    obs::count(tracer_, "checkpoint.snapshots", ckpt_->snapshots());
    obs::count(tracer_, "checkpoint.restores", ckpt_->restores());
  }
  if (budget_enabled_) {
    obs::count(tracer_, "budget.checks", budget_.checks());
  }
  done_ = true;
}

// Waits out one crash/partition block: charges the outage as latency
// rounds and advances the chaos clock past it. Returns false when the
// peer should be declared lost instead (budget or wait cap exhausted, or
// the wait itself breaches the round limit).
bool VerifiedSessionDriver::wait_out_block(std::uint64_t resume_tick,
                                           const char* what) {
  // Bits sent since the last phase boundary — or since the attempt began,
  // when no snapshot exists yet — are lost and will be re-sent.
  const std::uint64_t boundary = ckpt_ != nullptr && !ckpt_->empty()
                                     ? ckpt_->bits_at_boundary()
                                     : attempt_start_bits_;
  const std::uint64_t lost = channel_.cost().bits_total - boundary;
  result_.bits_replayed += lost;
  obs::count(tracer_, "checkpoint.bits_replayed", lost);
  restarts_used_ += 1;
  if (restarts_used_ > retry_.max_restarts) return false;
  const std::uint64_t now = chaos_->now();
  const std::uint64_t wait = resume_tick > now ? resume_tick - now : 1;
  if (wait > retry_.max_resume_wait_rounds) return false;
  try {
    channel_.charge_extra_rounds(wait);
  } catch (const core::ResourceLimitError&) {
    obs::count(tracer_, "limit.breaches");
    return false;
  }
  chaos_->advance_to(resume_tick);
  result_.restarts += 1;
  obs::count(tracer_, "chaos.restarts");
  if (recorder_ != nullptr) {
    recorder_->record(obs::FlightEventKind::kRestart, what, -1, wait,
                      channel_.cost().bits_total);
  }
  return true;
}

bool VerifiedSessionDriver::step_attempt() {
  try {
    if (!vt_) {
      // Inside the try: with limits installed the backoff charge itself
      // can breach max_rounds, which burns the attempt like any failure.
      if (backoff_due_) {
        backoff_due_ = false;
        const core::BackoffPolicy schedule{
            retry_.backoff_rounds, retry_.backoff_multiplier,
            retry_.backoff_cap_rounds, retry_.backoff_jitter};
        channel_.charge_extra_rounds(
            core::backoff_rounds_for_attempt(schedule, nonce_, rep_));
      }
      // Budget enforcement point before every (re)start of the attempt.
      if (budget_enabled_) budget_.check();
      vt_.emplace(channel_, shared_, util::mix64(nonce_, rep_), universe_, s_,
                  t_, params_, ckpt_);
    }
    if (!vt_->step()) {
      // Stage boundary: the step ends here, after the budget check.
      if (budget_enabled_) budget_.check();
      return true;
    }
  } catch (...) {
    // Close the run's spans and arena frame before the handlers meter the
    // recovery.
    vt_.reset();
    throw;
  }
  const core::IntersectionOutput out = std::move(vt_->output());
  vt_.reset();
  // 2k-bit certificate (Section 4): candidates are subsets of the inputs
  // and supersets of the intersection, so equality implies exactness.
  util::ScratchArena::Frame certificate_frame(channel_.scratch());
  const util::BitSpan ca = util::pack_set(out.alice, channel_.scratch());
  const util::BitSpan cb = util::pack_set(out.bob, channel_.scratch());
  obs::Span certificate_span(tracer_, "certificate");
  const bool certified = eq::equality_test(
      channel_, shared_, util::mix64(nonce_, util::mix64(0xCE27, rep_)), ca,
      cb, 2 * k_bound_);
  if (!certified) return false;
  obs::count(tracer_, "mp.verified_runs");
  obs::count(tracer_, "mp.repetitions", result_.repetitions);
  if (ckpt_ != nullptr && ckpt_->restores() > 0) {
    obs::count(tracer_, "checkpoint.resume_successes");
  }
  if (breaker_ != nullptr) {
    const core::BreakerState before = breaker_->state();
    breaker_->on_success();
    if (before != core::BreakerState::kClosed &&
        breaker_->state() == core::BreakerState::kClosed) {
      obs::count(tracer_, "breaker.closes");
    }
  }
  result_.intersection = out.alice;
  finish();
  return true;
}

bool VerifiedSessionDriver::step_attempts() {
  // The per-session attempt budget, taken literally: 0 means no certified
  // attempt at all — straight to the backstop (reliable transport) or the
  // degradation ladder (hostile).
  while (attempt_live_ ||
         (rep_ < retry_.max_attempts && !result_.peer_lost &&
          !budget_.exhausted())) {
    if (!attempt_live_) {
      if (breaker_ != nullptr && !breaker_->allow()) {
        // Open breaker: the accumulated evidence says this link is dead —
        // stop burning attempts (and pool tokens) and take the ladder.
        breaker_denied_ = true;
        obs::count(tracer_, "breaker.denials");
        return false;
      }
      if (rep_ > 0 && pool_ != nullptr && !pool_->try_acquire()) {
        // The shared retry pool is dry: no more re-attempts for anyone;
        // this session keeps its answer obligation via the ladder.
        budget_.mark_exhausted(core::BudgetDimension::kPool);
        obs::count(tracer_, "budget.pool_denials");
        return false;
      }
      result_.repetitions = rep_ + 1;
      attempt_start_bits_ = channel_.cost().bits_total;
      // Attempts draw fresh randomness, so a snapshot from a previous
      // attempt describes a transcript that no longer exists.
      if (ckpt_ != nullptr) ckpt_->clear();
      if (rep_ > 0) {
        obs::count(tracer_, "retry.attempts");
        if (recorder_ != nullptr) {
          recorder_->record(obs::FlightEventKind::kRetry,
                            "attempt " + std::to_string(rep_ + 1));
        }
      }
      backoff_due_ = rep_ > 0;
      attempt_live_ = true;
    }
    // A crash or partition inside the attempt is waited out and the
    // attempt resumes — from its last phase checkpoint when one is
    // installed, from scratch otherwise — under the SAME nonce, so the
    // replayed transcript is deterministic.
    while (attempt_live_) {
      try {
        if (step_attempt()) return true;
        attempt_live_ = false;  // failed certificate: fresh attempt
      } catch (const sim::PlayerCrashError& e) {
        obs::count(tracer_, "chaos.crashes");
        if (e.permanent || !wait_out_block(e.revive_tick, "crash")) {
          result_.peer_lost = true;
          attempt_live_ = false;
        }
        // Without a checkpoint the wait still happened (the link is only
        // usable again after the outage) but the attempt burns.
        if (ckpt_ == nullptr) attempt_live_ = false;
      } catch (const sim::LinkPartitionedError& e) {
        obs::count(tracer_, "chaos.partitions");
        if (!wait_out_block(e.heal_tick, "partition")) {
          result_.peer_lost = true;
          attempt_live_ = false;
        }
        if (ckpt_ == nullptr) attempt_live_ = false;
      } catch (const core::BudgetExhaustedError& e) {
        // A spending cap tripped at a stage boundary or between attempts.
        // The snapshot (if any) landed before the check, so the boundary
        // loses nothing — but no further exact attempt can be afforded:
        // the sticky exhausted flag ends the attempt loop and the run
        // descends the degradation ladder.
        obs::count(tracer_, "budget.exhaustions");
        obs::count(tracer_, std::string("budget.exhausted_") +
                                core::budget_dimension_name(e.dimension));
        if (recorder_ != nullptr) {
          recorder_->record(obs::FlightEventKind::kBudgetExhausted,
                            core::budget_dimension_name(e.dimension), -1, 0,
                            channel_.cost().bits_total);
        }
        attempt_live_ = false;
      } catch (const core::ResourceLimitError&) {
        // A frame or a decode blew past a resource cap — the signature
        // move of a Byzantine peer. Burn the attempt like any decode
        // failure (an unlucky honest run near the cap retries too).
        obs::count(tracer_, "limit.breaches");
        obs::count(tracer_, "retry.decode_failures");
        attempt_live_ = false;
      } catch (const std::exception&) {
        // A corrupted message failed to decode (the hardened decoders
        // throw on damaged length prefixes and short reads). Same remedy
        // as a failed certificate: fresh randomness, next attempt.
        obs::count(tracer_, "retry.decode_failures");
        attempt_live_ = false;
      }
    }
    // Every exit from an attempt without a certificate is one failed
    // attempt — feed the breaker so persistent link failure trips it.
    if (breaker_ != nullptr) {
      const core::BreakerState before = breaker_->state();
      breaker_->on_failure();
      if (before != core::BreakerState::kOpen &&
          breaker_->state() == core::BreakerState::kOpen) {
        obs::count(tracer_, "breaker.opens");
        if (recorder_ != nullptr) {
          recorder_->record(obs::FlightEventKind::kBreakerOpen,
                            "link breaker open", -1, 0,
                            channel_.cost().bits_total);
        }
      }
    }
    rep_ += 1;
  }
  return false;
}

void VerifiedSessionDriver::run_ladder() {
  // The deterministic backstop trusts every byte the peer sends, so it is
  // only sound against an unreliable-but-honest transport. A Byzantine
  // peer (enabled adversary) would simply lie to it; degrade instead. A
  // chaos plan counts as hostile too: the backstop has no recovery layer
  // of its own, so a mid-exchange crash would escape it.
  const bool hostile = (faults_ != nullptr && faults_->enabled()) ||
                       (adversary_ != nullptr && adversary_->enabled()) ||
                       chaos_ != nullptr;
  // An exhausted budget (or an open breaker) must not reach the backstop
  // either: the deterministic exchange costs Theta(k log(n/k)) bits the
  // session by definition can no longer afford.
  const bool overloaded = budget_.exhausted() || breaker_denied_;
  if (!hostile && !overloaded) {
    // Reliable channel: only hash collisions (or limit breaches) can get
    // here, and the deterministic backstop is exact.
    obs::count(tracer_, "mp.backstops");
    if (recorder_ != nullptr) {
      recorder_->record(obs::FlightEventKind::kBackstop,
                        "deterministic exchange");
    }
    try {
      const core::IntersectionOutput exact =
          core::deterministic_exchange(channel_, universe_, s_, t_);
      result_.intersection = exact.alice;
      finish();
      return;
    } catch (const core::ResourceLimitError&) {
      // Limits tight enough that even the deterministic exchange breaches
      // them: fall through to the degraded superset path rather than let
      // the error escape the retry layer.
      obs::count(tracer_, "limit.breaches");
    }
  }

  // Graceful degradation: the retry budget is gone and the transport is
  // hostile, so no exact answer can be promised. Basic-Intersection
  // candidates are supersets of S cap T whenever the exchange arrives
  // intact (Lemma 3.3): the channel's integrity framing already turns
  // damaged frames into exceptions, and the content-fault snapshot below
  // closes the residual 2^-32 checksum-collision window (duplicates and
  // delays cost bandwidth but never corrupt content, so they don't
  // disqualify a run).
  if (budget_.exhausted() && hooks_.budget.refuse_on_exhaustion) {
    // Bottom rung, by explicit request: a ResourceExhausted refusal
    // instead of a weak superset. Empty answer, flagged neither verified
    // nor degraded — `refused` is its own contract, and multiparty
    // callers must skip (not intersect) a refused pair to keep the
    // superset invariant.
    obs::count(tracer_, "budget.refusals");
    if (recorder_ != nullptr) {
      recorder_->record(obs::FlightEventKind::kBudgetExhausted, "refused");
      recorder_->incident("refused: session budget exhausted");
    }
    result_.verified = false;
    result_.degraded = false;
    result_.refused = true;
    result_.rung = core::DegradeRung::kRefused;
    result_.intersection.clear();
    finish();
    return;
  }

  obs::Span degraded_span(tracer_, "degraded");
  obs::count(tracer_, "degraded.runs");
  if (recorder_ != nullptr) {
    recorder_->record(obs::FlightEventKind::kDegrade, "superset answer");
    recorder_->incident(
        result_.peer_lost ? "degraded: peer lost"
        : budget_.exhausted()
            ? std::string("degraded: budget ") +
                  core::budget_dimension_name(budget_.reason())
        : breaker_denied_ ? "degraded: breaker open"
                          : "degraded: retry budget exhausted");
  }
  result_.verified = false;
  result_.degraded = true;
  // An attempt only counts as a clean superset if neither the stochastic
  // plan damaged content NOR the adversary substituted a frame during it —
  // a crafted frame that decodes cleanly can still lie, and a lie can
  // knock true elements out of the candidate (no superset guarantee).
  // Bursty chaos corruption counts for the same reason.
  const auto content_faults = [this] {
    std::uint64_t events = 0;
    if (faults_ != nullptr) {
      const sim::FaultStats& st = faults_->stats();
      events += st.bits_flipped + st.truncated_bits + st.dropped_messages;
    }
    if (adversary_ != nullptr) events += adversary_->stats().frames_crafted;
    if (chaos_ != nullptr) events += chaos_->stats().content_events;
    return events;
  };
  // A lost peer cannot answer Basic-Intersection either: go straight to
  // the input fallback instead of burning attempts against a dead link.
  // A blown deadline skips the middle rung for the same reason — the
  // Lemma-3.3 exchange takes rounds the clock no longer has — while bit,
  // round, attempt and pool exhaustion still afford the cheap superset.
  const bool past_deadline =
      budget_.reason() == core::BudgetDimension::kDeadline;
  const std::uint64_t degraded_attempts =
      result_.peer_lost || past_deadline
          ? 0
          : std::max<std::uint64_t>(1, retry_.degraded_attempts);
  for (std::uint64_t d = 0; d < degraded_attempts; ++d) {
    const std::uint64_t before = content_faults();
    try {
      const core::CandidatePair cand = core::basic_intersection(
          channel_, shared_, util::mix64(nonce_, util::mix64(0xDE64, d)),
          universe_, s_, t_, /*target_failure=*/1.0 / 64.0);
      if (content_faults() == before) {
        obs::count(tracer_, "degraded.clean_supersets");
        result_.rung = core::DegradeRung::kFlaggedSuperset;
        result_.intersection = cand.s_candidate;
        finish();
        return;
      }
    } catch (const std::exception&) {
      // Fault-touched attempt; fall through to the next one.
    }
  }
  // Every degraded attempt was corrupted (or the peer is gone): the
  // caller's own input is the one superset that survives any fault rate.
  obs::count(tracer_, "degraded.input_fallbacks");
  result_.rung = core::DegradeRung::kInputFallback;
  result_.intersection.assign(s_.begin(), s_.end());
  finish();
}

VerifiedRunResult VerifiedSessionDriver::run() {
  while (!step()) {
  }
  return result_;
}

bool VerifiedSessionDriver::step() {
  if (!done_ && !step_attempts()) run_ladder();
  return done_;
}

MultipartyResult coordinator_intersection(sim::Network& network,
                                          const sim::SharedRandomness& shared,
                                          std::uint64_t universe,
                                          const std::vector<util::Set>& sets,
                                          const MultipartyParams& params) {
  if (sets.size() != network.players()) {
    throw std::invalid_argument("coordinator: players/sets mismatch");
  }
  std::size_t k = params.k_bound;
  for (const util::Set& s : sets) {
    util::validate_set(s, universe);
    if (params.k_bound == 0) k = std::max(k, s.size());
  }
  k = std::max<std::size_t>(k, 2);
  const std::size_t group_size = 2 * k;

  MultipartyResult result;
  std::vector<std::size_t> active(sets.size());
  for (std::size_t i = 0; i < active.size(); ++i) active[i] = i;
  std::vector<util::Set> current = sets;

  // Attribution happens once, at the network billing layer — the inner
  // two-party channels run untraced so bits are not double-counted.
  obs::Tracer* tracer = network.tracer();
  obs::Span protocol_span(tracer, "coordinator");
  sim::FaultPlan* faults = params.fault_plan != nullptr
                               ? params.fault_plan
                               : network.fault_plan();
  const core::ResourceLimits* limits =
      params.limits.enabled() ? &params.limits : nullptr;
  sim::ChaosPlan* chaos =
      params.chaos != nullptr ? params.chaos : network.chaos_plan();
  if (chaos != nullptr && !chaos->enabled()) chaos = nullptr;

  // Overload governance, shared across every pairwise session of the run:
  // one retry-token pool, one breaker per link (persisting across levels
  // so evidence about a dead link accumulates), and a deterministic
  // admission controller shedding sessions when the pool runs critical.
  core::RetryBudgetPool pool(params.retry_pool_attempts);
  core::BreakerBoard breakers(params.breaker);
  core::AdmissionController admission(params.admission, &pool);
  result.per_player_degraded.assign(sets.size(), 0);
  // Honest accounting: a pair governed away (shed / short-circuited /
  // refused / degraded / dead-skipped) charges BOTH endpoints.
  const auto charge_pair = [&result](std::size_t x, std::size_t y) {
    result.per_player_degraded[x] += 1;
    result.per_player_degraded[y] += 1;
  };

  while (active.size() > 1) {
    obs::Span level_span(tracer, "level=" + std::to_string(result.levels));
    std::vector<std::size_t> coordinators;
    network.begin_batch();
    for (std::size_t lo = 0; lo < active.size(); lo += group_size) {
      const std::size_t hi = std::min(lo + group_size, active.size());
      const std::size_t coord = active[lo];
      coordinators.push_back(coord);
      util::Set acc = current[coord];
      for (std::size_t j = lo + 1; j < hi; ++j) {
        const std::size_t member = active[j];
        // A permanently dead player cannot run its pairwise session at
        // all; skipping it leaves the accumulator unchanged — still a
        // superset of the m-way intersection, honestly flagged.
        if (chaos != nullptr &&
            (chaos->player_dead(coord) || chaos->player_dead(member))) {
          result.dead_player_skips += 1;
          result.degraded_pairs += 1;
          result.degraded = true;
          charge_pair(coord, member);
          obs::count(tracer, "chaos.dead_player_skips");
          obs::count(tracer, "mp.degraded_pairs");
          continue;
        }
        const std::uint64_t nonce = util::mix64(
            util::mix64(result.levels, coord), util::mix64(member, 0xC0));
        // Admission control: under critical pool pressure, shed the
        // session before it spends anything. The seeded-priority decision
        // is a pure function of (admission seed, pair nonce, pool level),
        // so identical runs shed identical pairs.
        if (!admission.admit(nonce)) {
          result.shed_pairs += 1;
          result.degraded_pairs += 1;
          result.degraded = true;
          charge_pair(coord, member);
          obs::count(tracer, "budget.shed");
          obs::count(tracer, "mp.degraded_pairs");
          continue;
        }
        // Circuit-breaker gate: a link whose breaker is open goes
        // straight to degradation — the accumulator keeps the superset
        // invariant and the pool keeps its tokens.
        core::CircuitBreaker* pair_breaker =
            breakers.enabled() ? &breakers.link(coord, member) : nullptr;
        if (pair_breaker != nullptr && !pair_breaker->allow()) {
          result.breaker_short_circuits += 1;
          result.degraded_pairs += 1;
          result.degraded = true;
          charge_pair(coord, member);
          obs::count(tracer, "breaker.short_circuits");
          obs::count(tracer, "mp.degraded_pairs");
          continue;
        }
        // Bind the Byzantine player (if any) to the channel role it holds
        // in this pair; pairs of honest players run with no adversary.
        sim::Adversary* pair_adversary = nullptr;
        if (params.adversary != nullptr) {
          if (coord == params.byzantine_player) {
            params.adversary->set_party(sim::PartyId::kAlice);
            pair_adversary = params.adversary;
          } else if (member == params.byzantine_player) {
            params.adversary->set_party(sim::PartyId::kBob);
            pair_adversary = params.adversary;
          }
        }
        SessionHooks hooks;
        hooks.faults = faults;
        hooks.adversary = pair_adversary;
        hooks.limits = limits;
        hooks.chaos = chaos;
        hooks.player_a = coord;
        hooks.player_b = member;
        hooks.checkpoint = params.checkpoint;
        hooks.budget = params.budget;
        hooks.retry_pool = pool.enabled() ? &pool : nullptr;
        hooks.breaker = pair_breaker;
        VerifiedRunResult vr = verified_two_party_intersection(
            shared, nonce, universe, current[coord], current[member],
            params.tree, k, params.retry, hooks);
        if (pair_adversary != nullptr) {
          obs::count(tracer, "mp.byzantine_pairs");
        }
        network.bill_pairwise_in_batch(coord, member, vr.cost);
        result.total_repetitions += vr.repetitions;
        result.total_restarts += vr.restarts;
        result.total_bits_replayed += vr.bits_replayed;
        obs::count(tracer, "mp.pairwise_runs");
        obs::count(tracer, "mp.repetitions", vr.repetitions);
        if (vr.refused) {
          result.refused_pairs += 1;
          obs::count(tracer, "budget.refused_pairs");
        }
        if (vr.degraded || vr.refused) {
          // The degraded answer is still a superset of coord-cap-member,
          // hence of the m-way intersection, so intersecting it into the
          // accumulator keeps the one-sided invariant. A refusal carries
          // no answer at all and is handled below like a skip.
          result.degraded_pairs += 1;
          result.degraded = true;
          charge_pair(coord, member);
          obs::count(tracer, "mp.degraded_pairs");
        }
        // A refused session returned the EMPTY set by contract —
        // intersecting that in would silently destroy the superset
        // invariant, so a refused pair leaves the accumulator untouched.
        if (!vr.refused) {
          acc = util::set_intersection(acc, vr.intersection);
        }
      }
      current[coord] = std::move(acc);
    }
    network.end_batch();
    active = std::move(coordinators);
    result.levels += 1;
  }

  result.pool_retry_denials = pool.denials();
  result.breaker_opens = breakers.total_opens();
  if (pool.enabled()) {
    obs::count(tracer, "budget.pool_spent", pool.spent());
  }

  result.intersection = current[active[0]];

  if (params.broadcast_result && network.players() > 1) {
    obs::Span broadcast_span(tracer, "broadcast");
    // The root coordinator ships the result to every other player in one
    // parallel round.
    util::BitBuffer encoded;
    util::append_set(encoded, result.intersection);
    const std::uint64_t bits = encoded.size_bits();
    const std::size_t root = active[0];
    network.begin_batch();
    for (std::size_t i = 0; i < network.players(); ++i) {
      if (i == root) continue;
      sim::CostStats one_message;
      one_message.bits_total = bits;
      one_message.bits_from_alice = bits;
      one_message.messages = 1;
      one_message.rounds = 1;
      network.bill_pairwise_in_batch(root, i, one_message);
      result.broadcast_bits += bits;
    }
    network.end_batch();
  }
  return result;
}

}  // namespace setint::multiparty

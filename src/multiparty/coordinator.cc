#include "multiparty/coordinator.h"

#include <algorithm>
#include <stdexcept>

#include "core/basic_intersection.h"
#include "core/deterministic_exchange.h"
#include "eq/equality.h"
#include "multiparty/pair_sessions.h"
#include "obs/recorder.h"
#include "util/arena.h"
#include "util/bitio.h"
#include "util/rng.h"

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
    const core::RetryPolicy& retry, const SessionHooks& hooks, bool certify)
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
      certify_(certify),
      tracer_(hooks.tracer),
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
      pool_(hooks.retry_pool),
      breaker_(hooks.breaker != nullptr && hooks.breaker->policy().enabled()
                   ? hooks.breaker
                   : nullptr),
      // Phase-boundary checkpoint store, shared by every attempt. It earns
      // its keep under chaos — iid faults corrupt single messages (the
      // retry loop is the right tool), while crash/partition blocks lose
      // whole half-finished sessions that a snapshot can rescue.
      ckpt_(chaos_ != nullptr && hooks.checkpoint ? &ckpt_store_ : nullptr) {
  channel_.set_tracer(tracer_);
  channel_.set_recorder(recorder_);
  channel_.set_link(hooks_.player_a, hooks_.player_b);
  channel_.set_fault_plan(hooks_.faults);
  channel_.set_adversary(hooks_.adversary);
  if (hooks_.limits != nullptr && hooks_.limits->enabled()) {
    channel_.set_limits(hooks_.limits);
  }
  channel_.set_chaos(chaos_);
  if (hooks_.budget.enabled()) channel_.set_budget(&budget_);
  result_.repetitions = 0;
}

void VerifiedSessionDriver::finish() {
  result_.cost = channel_.cost();
  result_.budget_reason = budget_.reason();
  if (ckpt_ != nullptr) {
    obs::count(tracer_, "checkpoint.snapshots", ckpt_->snapshots());
    obs::count(tracer_, "checkpoint.restores", ckpt_->restores());
  }
  done_ = true;
}

// Waits out one crash/partition block: charges the outage as latency
// rounds and advances the chaos clock past it. Returns false when the
// peer should be declared lost instead (restart or wait cap exhausted).
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
  channel_.charge_extra_rounds(wait);
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
      if (backoff_due_) {
        backoff_due_ = false;
        channel_.charge_extra_rounds(
            core::backoff_rounds_for_attempt(retry_, nonce_, rep_));
      }
      vt_.emplace(channel_, shared_, util::mix64(nonce_, rep_), universe_, s_,
                  t_, params_, ckpt_);
    }
    if (!vt_->step()) return true;  // stage boundary
  } catch (...) {
    // Close the run's spans and arena frame before the handlers meter the
    // recovery.
    vt_.reset();
    throw;
  }
  const core::IntersectionOutput out = std::move(vt_->output());
  const sim::PartyId opener = vt_->last_sender();
  vt_.reset();
  if (certify_) {
    // 2k-bit certificate (Section 4): candidates are subsets of the inputs
    // and supersets of the intersection, so equality implies exactness.
    // The party that sent the tree's last message sends the hash in that
    // turn.
    util::ScratchArena::Frame certificate_frame(channel_.scratch());
    const util::BitSpan ca = util::pack_set(out.alice, channel_.scratch());
    const util::BitSpan cb = util::pack_set(out.bob, channel_.scratch());
    obs::Span certificate_span(tracer_, "certificate");
    const bool certified = eq::equality_test(
        channel_, shared_, util::mix64(nonce_, util::mix64(0xCE27, rep_)),
        ca, cb, 2 * k_bound_, opener);
    if (!certified) return false;
    obs::count(tracer_, "mp.verified_runs");
  } else {
    // No certificate to catch damage that slipped past the integrity check
    // or a crafted frame, either of which can knock true elements out of
    // the candidates: an attempt that met one is discarded.
    if (channel_.untrusted_deliveries() != attempt_start_untrusted_) {
      return false;
    }
    result_.verified = false;
  }
  obs::count(tracer_, "mp.repetitions", result_.repetitions);
  if (ckpt_ != nullptr && ckpt_->restores() > 0) {
    obs::count(tracer_, "checkpoint.resume_successes");
  }
  if (breaker_ != nullptr && breaker_->on_success()) {
    obs::count(tracer_, "breaker.closes");
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
      attempt_start_untrusted_ = channel_.untrusted_deliveries();
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
    // replayed transcript is deterministic. A block that cannot be waited
    // out loses the peer. Without a checkpoint the wait still happened
    // (the link is only usable again after the outage) but the attempt
    // burns.
    const auto after_block = [this](bool resumed) {
      if (!resumed) result_.peer_lost = true;
      if (!resumed || ckpt_ == nullptr) attempt_live_ = false;
    };
    while (attempt_live_) {
      try {
        if (step_attempt()) return true;
        attempt_live_ = false;  // failed attempt: fresh randomness
      } catch (const sim::PlayerCrashError& e) {
        obs::count(tracer_, "chaos.crashes");
        after_block(!e.permanent && wait_out_block(e.revive_tick, "crash"));
      } catch (const sim::LinkPartitionedError& e) {
        obs::count(tracer_, "chaos.partitions");
        after_block(wait_out_block(e.heal_tick, "partition"));
      } catch (const core::BudgetExhaustedError& e) {
        // The channel refused a send past a spending cap, before any of
        // its bits left. No further exact attempt can be afforded: the
        // sticky exhausted flag ends the attempt loop and the run descends
        // the degradation ladder.
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
    // Every exit from an attempt without a passing answer is one failed
    // attempt — feed the breaker so persistent link failure trips it.
    if (breaker_ != nullptr && breaker_->on_failure()) {
      obs::count(tracer_, "breaker.opens");
      if (recorder_ != nullptr) {
        recorder_->record(obs::FlightEventKind::kBreakerOpen,
                          "link breaker open", -1, 0,
                          channel_.cost().bits_total);
      }
    }
    rep_ += 1;
  }
  return false;
}

void VerifiedSessionDriver::run_ladder() {
  // The budget caps the attempts only: every rung below runs after it is
  // spent, and the backstop only when it is not.
  channel_.set_budget(nullptr);
  // The deterministic backstop trusts every byte the peer sends, so it is
  // only sound against an unreliable-but-honest transport. A Byzantine
  // peer (enabled adversary) would simply lie to it; degrade instead. A
  // chaos plan counts as hostile too: the backstop has no recovery layer
  // of its own, so a mid-exchange crash would escape it.
  const bool hostile =
      (hooks_.faults != nullptr && hooks_.faults->enabled()) ||
      (hooks_.adversary != nullptr && hooks_.adversary->enabled()) ||
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
  // An attempt only counts as a clean superset if nothing untrusted reached
  // a decoder during it (Channel::untrusted_deliveries): no damage that
  // slipped past the checksum, and no crafted frame — one that decodes
  // cleanly can still lie, and a lie can knock true elements out of the
  // candidate (no superset guarantee).
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
    const std::uint64_t before = channel_.untrusted_deliveries();
    try {
      const core::CandidatePair cand = core::basic_intersection(
          channel_, shared_, util::mix64(nonce_, util::mix64(0xDE64, d)),
          universe_, s_, t_, /*target_failure=*/1.0 / 64.0);
      if (channel_.untrusted_deliveries() == before) {
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
  MultipartyResult result;
  PairSessions pairs(network, shared, universe, sets, params, result);
  const std::size_t group_size = 2 * pairs.k();
  std::vector<std::size_t> active(sets.size());
  for (std::size_t i = 0; i < active.size(); ++i) active[i] = i;
  std::vector<util::Set> current = sets;

  obs::Tracer* tracer = network.tracer();
  obs::Span protocol_span(tracer, "coordinator");
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
        const std::uint64_t nonce = util::mix64(
            util::mix64(result.levels, coord), util::mix64(member, 0xC0));
        // A skipped or refused pair leaves the accumulator unchanged, and
        // a degraded answer is still a superset of coord-cap-member: either
        // way the accumulator stays a superset of the m-way intersection.
        if (!pairs.admit(coord, member, nonce)) continue;
        if (const std::optional<util::Set> answer =
                pairs.run(coord, member, nonce, current[coord],
                          current[member], /*certify=*/true)) {
          acc = util::set_intersection(acc, *answer);
        }
      }
      current[coord] = std::move(acc);
    }
    network.end_batch();
    active = std::move(coordinators);
    result.levels += 1;
  }
  pairs.finish();
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

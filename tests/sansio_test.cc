// Differential harness for the sans-IO engine (core/engine.h), the
// event-loop scheduler (runtime/scheduler.h) and the stepped certified
// session (multiparty/session_machine.h).
//
// The load-bearing invariant everywhere below: a protocol machine driven
// through ANY step schedule — back-to-back steps, seeded per-tick
// shuffles across thousands of interleaved sessions with staggered
// arrivals and per-session latencies, 1 or N scheduler shards — produces
// a transcript digest (and output fingerprint, bits, rounds) that is
// BIT-IDENTICAL to the blocking protocol function run on the same seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/basic_intersection.h"
#include "core/bucket_eq.h"
#include "core/engine.h"
#include "core/verification_tree.h"
#include "eq/amortized_eq.h"
#include "multiparty/coordinator.h"
#include "multiparty/session_machine.h"
#include "obs/tracer.h"
#include "runtime/scheduler.h"
#include "sim/chaos.h"
#include "sim/channel.h"
#include "sim/fault.h"
#include "sim/randomness.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

// ---------- shared helpers ----------

struct BlockingRef {
  std::uint64_t digest = 0;
  std::uint64_t bits = 0;
  std::uint64_t rounds = 0;
};

// The blocking engine: the bare protocol function over a digest-enabled
// channel. No sans-IO machinery anywhere near this code path.
BlockingRef blocking_reference(std::string_view kind,
                               const core::MachineConfig& cfg) {
  sim::Channel channel;
  channel.enable_digest();
  const sim::SharedRandomness shared(cfg.seed);
  if (kind == "bi") {
    core::basic_intersection(channel, shared, cfg.nonce, cfg.universe, cfg.s,
                             cfg.t, cfg.bi_target_failure);
  } else if (kind == "vt") {
    core::verification_tree_intersection(channel, shared, cfg.nonce,
                                         cfg.universe, cfg.s, cfg.t, cfg.tree);
  } else if (kind == "bucket_eq") {
    core::bucket_eq_intersection(channel, shared, cfg.nonce, cfg.universe,
                                 cfg.s, cfg.t, cfg.bucket_eq_strength);
  } else if (kind == "amortized_eq") {
    std::vector<util::BitBuffer> xs, ys;
    core::make_amortized_eq_inputs(
        cfg.seed,
        cfg.eq_instances != 0 ? cfg.eq_instances
                              : std::max<std::size_t>(cfg.s.size(), 4),
        &xs, &ys);
    eq::amortized_equality(channel, shared, cfg.nonce, xs, ys);
  } else {
    ADD_FAILURE() << "unknown kind " << kind;
  }
  return {channel.digest(), channel.cost().bits_total, channel.cost().rounds};
}

core::MachineConfig make_cfg(std::uint64_t seed, std::uint64_t idx) {
  core::MachineConfig cfg;
  cfg.seed = util::mix64(seed, 2 * idx + 1);
  cfg.nonce = util::mix64(seed, util::mix64(0xA0CE, idx));
  cfg.universe = std::uint64_t{1} << 14;
  util::Rng rng(util::mix64(cfg.seed, 0x5e7));
  const std::size_t k = 6 + rng.below(15);  // 6..20
  const auto pair = util::random_set_pair(rng, cfg.universe, k,
                                          rng.below(k + 1));
  cfg.s = pair.s;
  cfg.t = pair.t;
  cfg.eq_instances = 4;
  return cfg;
}

// What a machine shows after one step: enough to tell two step-by-step
// runs apart at the first boundary where they diverge.
struct StepView {
  core::MachineStatus status;
  std::uint64_t bits_total;
  std::uint64_t digest;
  bool operator==(const StepView&) const = default;
};

// Sequential engine drive: steps back to back until the machine finishes.
// `trace` (optional) collects the view after every step.
void drive_sequential(core::ProtocolMachine& m,
                      std::vector<StepView>* trace = nullptr) {
  do {
    m.step();
    if (trace != nullptr) {
      trace->push_back({m.status(), m.cost().bits_total, m.digest()});
    }
  } while (m.status() == core::MachineStatus::kRunning);
}

// ---------- single-machine engine behavior ----------

TEST(SansioMachine, StreamingDigestMatchesTranscriptDigest) {
  // The channel's streaming digest must equal the recording transcript's
  // digest — by construction (sim::fold_digest at the same point), pinned
  // here so the construction can't drift.
  const core::MachineConfig cfg = make_cfg(0xD167, 3);
  sim::Channel channel(/*record_transcript=*/true);
  channel.enable_digest();
  const sim::SharedRandomness shared(cfg.seed);
  core::verification_tree_intersection(channel, shared, cfg.nonce,
                                       cfg.universe, cfg.s, cfg.t, cfg.tree);
  ASSERT_NE(channel.transcript(), nullptr);
  EXPECT_EQ(channel.digest(), channel.transcript()->digest());
  EXPECT_GT(channel.cost().messages, 0u);
}

// Step-by-step replay: the same machine config driven twice passes
// through the identical (status, bits, digest) at every boundary.
TEST(SansioMachine, SequentialReplayIsStepIdentical) {
  for (const std::string_view kind : core::kMachineKinds) {
    const core::MachineConfig cfg = make_cfg(0x3E9, 11);
    auto m1 = core::make_machine(kind, cfg);
    auto m2 = core::make_machine(kind, cfg);
    std::vector<StepView> trace1, trace2;
    drive_sequential(*m1, &trace1);
    drive_sequential(*m2, &trace2);
    ASSERT_EQ(m1->status(), core::MachineStatus::kDone) << kind;
    EXPECT_GT(trace1.size(), 1u) << kind;
    EXPECT_EQ(trace1, trace2) << kind;
    EXPECT_EQ(m1->digest(), m2->digest()) << kind;
    EXPECT_EQ(m1->steps(), m2->steps()) << kind;
    EXPECT_EQ(m1->result_fingerprint(), m2->result_fingerprint()) << kind;
  }
}

// ---------- the differential harness proper ----------

// Per core protocol, 200 seeded sessions through the scheduler — seeded
// per-tick shuffle, per-session step latencies, staggered arrivals — each
// asserted digest-identical (and bits-identical) to the blocking engine.
TEST(SansioDifferential, SchedulerMatchesBlockingPerKind) {
  constexpr std::size_t kSessions = 200;
  for (const std::string_view kind : core::kMachineKinds) {
    std::vector<BlockingRef> refs(kSessions);
    runtime::Scheduler sched([] {
      runtime::SchedulerOptions o;
      o.seed = 0x5EED;
      o.shuffle = true;
      o.max_step_latency = 4;
      o.arrival_window = 32;
      return o;
    }());
    for (std::size_t g = 0; g < kSessions; ++g) {
      const core::MachineConfig cfg =
          make_cfg(util::mix64(0xD1FF, std::uint64_t(kind.size())), g);
      refs[g] = blocking_reference(kind, cfg);
      sched.add(core::make_machine(kind, cfg), g);
    }
    sched.run();
    for (std::size_t g = 0; g < kSessions; ++g) {
      const runtime::SessionRecord& rec = sched.record(g);
      ASSERT_EQ(rec.final_status, core::MachineStatus::kDone)
          << kind << " session " << g;
      EXPECT_EQ(rec.digest, refs[g].digest) << kind << " session " << g;
      EXPECT_EQ(rec.bits_total, refs[g].bits) << kind << " session " << g;
    }
    EXPECT_EQ(sched.completed(), kSessions) << kind;
    EXPECT_EQ(sched.failed(), 0u) << kind;
  }
}

// One session whose first step throws fails alone: the throw becomes
// kFailed with its message kept, the loop does not stall on it, and every
// healthy session it was interleaved with still matches its blocking run.
TEST(SansioDifferential, FailedSessionLeavesTheFleetIntact) {
  constexpr std::size_t kSessions = 40;
  constexpr std::size_t kBroken = 12;  // a "bi" session (12 % 4 == 0)
  runtime::Scheduler sched([] {
    runtime::SchedulerOptions o;
    o.seed = 0xFA11;
    o.max_step_latency = 3;
    o.arrival_window = 8;
    return o;
  }());
  std::vector<BlockingRef> refs(kSessions);
  for (std::size_t g = 0; g < kSessions; ++g) {
    const std::string_view kind = core::kMachineKinds[g % 4];
    core::MachineConfig cfg = make_cfg(0xFA12, g);
    if (g == kBroken) {
      ASSERT_EQ(kind, "bi");
      cfg.s.push_back(cfg.universe);  // out of range: the first step throws
    } else {
      refs[g] = blocking_reference(kind, cfg);
    }
    sched.add(core::make_machine(kind, std::move(cfg)), g);
  }
  ASSERT_NO_THROW(sched.run());
  EXPECT_EQ(sched.failed(), 1u);
  EXPECT_EQ(sched.completed(), kSessions - 1);
  for (std::size_t g = 0; g < kSessions; ++g) {
    const runtime::SessionRecord& rec = sched.record(g);
    if (g == kBroken) {
      EXPECT_EQ(rec.final_status, core::MachineStatus::kFailed);
      EXPECT_EQ(rec.steps, 1u);
      EXPECT_EQ(rec.bits_total, 0u);
      EXPECT_FALSE(sched.machine(g).error().empty());
      // Stepping a finished machine changes nothing.
      EXPECT_EQ(sched.machine(g).step(), core::MachineStatus::kFailed);
      EXPECT_EQ(sched.machine(g).steps(), 1u);
      continue;
    }
    ASSERT_EQ(rec.final_status, core::MachineStatus::kDone) << g;
    EXPECT_EQ(rec.digest, refs[g].digest) << g;
    EXPECT_EQ(rec.bits_total, refs[g].bits) << g;
  }
}

// Thread invariance: the same fleet sharded over 1, 2 and 4 schedulers
// produces identical aggregates (runtime/scheduler.h's contract).
TEST(SansioDifferential, ServiceRunThreadInvariance) {
  constexpr std::size_t kSessions = 96;
  runtime::SchedulerOptions opts;
  opts.seed = 0x7123;
  opts.max_step_latency = 3;
  opts.arrival_window = 16;
  auto build = [] {
    std::vector<std::unique_ptr<core::ProtocolMachine>> machines;
    for (std::size_t g = 0; g < kSessions; ++g) {
      machines.push_back(core::make_machine(core::kMachineKinds[g % 4],
                                            make_cfg(0x9137, g)));
    }
    return machines;
  };
  const runtime::ServiceRun one = runtime::run_service(build(), opts, 1);
  const runtime::ServiceRun two = runtime::run_service(build(), opts, 2);
  const runtime::ServiceRun four = runtime::run_service(build(), opts, 4);
  ASSERT_EQ(one.completed, kSessions);
  ASSERT_EQ(one.failed, 0u);
  for (const runtime::ServiceRun* run : {&two, &four}) {
    EXPECT_EQ(run->digest_fold, one.digest_fold);
    EXPECT_EQ(run->completed, one.completed);
    EXPECT_EQ(run->failed, one.failed);
    EXPECT_EQ(run->peak_inflight, one.peak_inflight);
    EXPECT_EQ(run->events_processed, one.events_processed);
    EXPECT_EQ(run->completion_ticks.count(), one.completion_ticks.count());
    EXPECT_EQ(run->completion_ticks.sum(), one.completion_ticks.sum());
  }
  // And per-session records line up with direct blocking runs.
  for (std::size_t g = 0; g < kSessions; ++g) {
    const BlockingRef ref = blocking_reference(core::kMachineKinds[g % 4],
                                               make_cfg(0x9137, g));
    EXPECT_EQ(one.record(g).digest, ref.digest) << g;
    EXPECT_EQ(four.record(g).digest, ref.digest) << g;
  }
}

// ---------- the stepped certified session (interop satellites) ----------

using multiparty::SessionHooks;
using multiparty::SessionMachineConfig;
using multiparty::VerifiedRunResult;
using multiparty::VerifiedSessionMachine;

std::map<std::string, std::uint64_t> counter_snapshot(const obs::Tracer& tr) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, counter] : tr.metrics().counters()) {
    out[name] = counter.value();
  }
  return out;
}

void expect_results_match(const VerifiedRunResult& a,
                          const VerifiedRunResult& b) {
  EXPECT_EQ(a.intersection, b.intersection);
  EXPECT_EQ(a.repetitions, b.repetitions);
  EXPECT_EQ(a.verified, b.verified);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.refused, b.refused);
  EXPECT_EQ(a.peer_lost, b.peer_lost);
  EXPECT_EQ(a.rung, b.rung);
  EXPECT_EQ(a.budget_reason, b.budget_reason);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.bits_replayed, b.bits_replayed);
  EXPECT_EQ(a.cost.bits_total, b.cost.bits_total);
  EXPECT_EQ(a.cost.rounds, b.cost.rounds);
  EXPECT_EQ(a.cost.messages, b.cost.messages);
  EXPECT_EQ(multiparty::fingerprint_verified_result(a),
            multiparty::fingerprint_verified_result(b));
}

struct SessionInputs {
  std::uint64_t seed, nonce, universe;
  util::Set s, t;
  core::RetryPolicy retry;
};

SessionInputs certified_inputs(std::uint64_t seed) {
  SessionInputs in;
  in.seed = seed;
  in.nonce = util::mix64(seed, 0xCE55);
  in.universe = std::uint64_t{1} << 12;
  util::Rng rng(util::mix64(seed, 0x1235));
  const auto pair = util::random_set_pair(rng, in.universe, 16, 6);
  in.s = pair.s;
  in.t = pair.t;
  return in;
}

// Runs the blocking path and the engine-driven machine under two
// identically-seeded copies of the hook environment; `rig` installs the
// environment into the hooks for one run (called once per mode).
template <typename Rig>
void differential_certified_session(std::uint64_t seed, Rig rig,
                                    VerifiedRunResult* blocking_out = nullptr,
                                    VerifiedRunResult* machine_out = nullptr,
                                    std::uint64_t* machine_steps = nullptr) {
  const SessionInputs in = certified_inputs(seed);

  obs::Tracer tr_blocking;
  SessionHooks hooks_blocking;
  hooks_blocking.tracer = &tr_blocking;
  auto env_blocking = rig(hooks_blocking);
  (void)env_blocking;
  const sim::SharedRandomness shared(in.seed);
  // What verified_two_party_intersection runs, with the digest enabled.
  multiparty::VerifiedSessionDriver driver(shared, in.nonce, in.universe,
                                           in.s, in.t, {}, 0, in.retry,
                                           hooks_blocking);
  driver.channel().enable_digest();
  const VerifiedRunResult blocking = driver.run();

  obs::Tracer tr_machine;
  SessionMachineConfig cfg;
  cfg.seed = in.seed;
  cfg.nonce = in.nonce;
  cfg.universe = in.universe;
  cfg.s = in.s;
  cfg.t = in.t;
  cfg.retry = in.retry;
  cfg.hooks.tracer = &tr_machine;
  auto env_machine = rig(cfg.hooks);
  (void)env_machine;
  VerifiedSessionMachine machine(std::move(cfg));
  drive_sequential(machine);
  ASSERT_EQ(machine.status(), core::MachineStatus::kDone);

  expect_results_match(blocking, machine.result());
  EXPECT_EQ(machine.digest(), driver.channel().digest());
  // Every counter family the session emits — retry.*, checkpoint.*,
  // budget.*, chaos.*, fault.*, degraded.*, mp.* — must match exactly.
  EXPECT_EQ(counter_snapshot(tr_blocking), counter_snapshot(tr_machine));
  if (blocking_out != nullptr) *blocking_out = blocking;
  if (machine_out != nullptr) *machine_out = machine.result();
  if (machine_steps != nullptr) *machine_steps = machine.steps();
}

TEST(SansioCertified, CleanSessionMatchesBlocking) {
  VerifiedRunResult blocking;
  differential_certified_session(
      0xC1EA,
      [](SessionHooks&) { return 0; },
      &blocking);
  EXPECT_TRUE(blocking.verified);
  EXPECT_EQ(blocking.rung, core::DegradeRung::kExact);
}

TEST(SansioCertified, WithoutCheckpointStepsPerStage) {
  // Stepping does not need a checkpoint: the machine still stops at every
  // verification-tree stage boundary, and matches the blocking run.
  VerifiedRunResult blocking;
  std::uint64_t steps = 0;
  differential_certified_session(
      0xC1EB,
      [](SessionHooks& hooks) {
        hooks.checkpoint = false;
        return 0;
      },
      &blocking, nullptr, &steps);
  EXPECT_TRUE(blocking.verified);
  EXPECT_GT(steps, 1u);
}

TEST(SansioCertified, FaultPlanInteropMatchesBlocking) {
  // Unreliable transport: flips + drops force retries; the machine's
  // stage-by-stage stepping must leave the retry ladder's behavior — and
  // every fault.*/retry.* counter — untouched.
  sim::FaultSpec spec;
  spec.flip_per_bit = 5e-4;
  spec.drop_prob = 0.03;
  spec.seed = 0xFA1C;  // a stream that flips one bit and drops one frame
  std::vector<std::unique_ptr<sim::FaultPlan>> plans;
  VerifiedRunResult blocking;
  differential_certified_session(
      0xFA07,
      [&](SessionHooks& hooks) {
        plans.push_back(std::make_unique<sim::FaultPlan>(spec));
        hooks.faults = plans.back().get();
        return 0;
      },
      &blocking);
  // The fault stream must actually have bitten (else the test is vacuous).
  EXPECT_GT(plans.front()->stats().bits_flipped +
                plans.front()->stats().dropped_messages,
            0u);
}

TEST(SansioCertified, ChaosPlanInteropMatchesBlocking) {
  // Crash/restart chaos: checkpoint resume in both modes, with
  // checkpoint.snapshots / checkpoint.restores / chaos.* counters and
  // restarts/bits_replayed asserted identical by the harness.
  sim::ChaosSpec spec;
  spec.players = 2;
  spec.seed = 0xC405;
  spec.crash.crash_prob = 0.04;
  spec.crash.restart_ticks = 3;
  std::vector<std::unique_ptr<sim::ChaosPlan>> plans;
  VerifiedRunResult blocking, machined;
  differential_certified_session(
      0xC406,
      [&](SessionHooks& hooks) {
        plans.push_back(std::make_unique<sim::ChaosPlan>(spec, 0xC407));
        hooks.chaos = plans.back().get();
        return 0;
      },
      &blocking, &machined);
  EXPECT_GT(plans.front()->stats().crashes, 0u);
  EXPECT_GT(blocking.restarts, 0u);
  EXPECT_EQ(blocking.restarts, machined.restarts);
}

TEST(SansioCertified, BudgetCapInteropMatchesBlocking) {
  // A bit cap that trips mid-session: identical ladder descent
  // (retry -> degrade) and identical budget.exhaustions in both modes —
  // the stepping must not re-run (or skip) any send the channel checks
  // against the budget.
  VerifiedRunResult blocking;
  differential_certified_session(
      0xB0D6,
      [](SessionHooks& hooks) {
        hooks.budget.max_bits = 64;
        return 0;
      },
      &blocking);
  EXPECT_TRUE(blocking.degraded);
  EXPECT_EQ(blocking.budget_reason, core::BudgetDimension::kBits);
}

TEST(SansioCertified, BudgetRefusalInteropMatchesBlocking) {
  // Bottom rung: strict-SLA refusal instead of a superset, same in both
  // modes (retry -> degrade -> REFUSE end of the ladder).
  VerifiedRunResult blocking;
  differential_certified_session(
      0xB0D7,
      [](SessionHooks& hooks) {
        hooks.budget.max_bits = 64;
        hooks.budget.refuse_on_exhaustion = true;
        return 0;
      },
      &blocking);
  EXPECT_TRUE(blocking.refused);
  EXPECT_TRUE(blocking.intersection.empty());
  EXPECT_EQ(blocking.rung, core::DegradeRung::kRefused);
}

TEST(SansioCertified, SchedulerDrivesCertifiedSessions) {
  // Certified sessions as scheduler citizens: a small interleaved fleet,
  // each compared against its blocking twin. Every session gets its own
  // tracer (thread/session affinity), faults on odd sessions.
  constexpr std::size_t kSessions = 24;
  sim::FaultSpec spec;
  spec.flip_per_bit = 3e-4;
  spec.seed = 0x0DD5;

  std::vector<VerifiedRunResult> blocking(kSessions);
  for (std::size_t g = 0; g < kSessions; ++g) {
    const SessionInputs in = certified_inputs(util::mix64(0x5CED, g));
    sim::FaultPlan plan(spec);
    SessionHooks hooks;
    if (g % 2 == 1) hooks.faults = &plan;
    const sim::SharedRandomness shared(in.seed);
    blocking[g] = multiparty::verified_two_party_intersection(
        shared, in.nonce, in.universe, in.s, in.t, {}, 0, in.retry, hooks);
  }

  runtime::Scheduler sched([] {
    runtime::SchedulerOptions o;
    o.seed = 0x5CEE;
    o.arrival_window = 8;
    return o;
  }());
  std::vector<std::unique_ptr<sim::FaultPlan>> plans;
  for (std::size_t g = 0; g < kSessions; ++g) {
    const SessionInputs in = certified_inputs(util::mix64(0x5CED, g));
    SessionMachineConfig cfg;
    cfg.seed = in.seed;
    cfg.nonce = in.nonce;
    cfg.universe = in.universe;
    cfg.s = in.s;
    cfg.t = in.t;
    cfg.retry = in.retry;
    if (g % 2 == 1) {
      plans.push_back(std::make_unique<sim::FaultPlan>(spec));
      cfg.hooks.faults = plans.back().get();
    }
    sched.add(std::make_unique<VerifiedSessionMachine>(std::move(cfg)), g);
  }
  sched.run();
  EXPECT_EQ(sched.completed(), kSessions);
  for (std::size_t g = 0; g < kSessions; ++g) {
    ASSERT_EQ(sched.record(g).final_status, core::MachineStatus::kDone) << g;
    EXPECT_EQ(sched.record(g).result_fingerprint,
              multiparty::fingerprint_verified_result(blocking[g]))
        << g;
    EXPECT_EQ(sched.record(g).bits_total, blocking[g].cost.bits_total) << g;
  }
}

}  // namespace
}  // namespace setint

// Differential harness for the sans-IO engine (core/engine.h), the
// event-loop scheduler (runtime/scheduler.h) and the stepped certified
// session (multiparty/session_machine.h).
//
// The load-bearing invariant everywhere below: a protocol machine driven
// through ANY delivery schedule — sequential acks, byte-at-a-time
// trickle, randomly re-chunked frames, seeded per-tick shuffles across
// thousands of interleaved sessions, 1 or N scheduler shards — produces
// a transcript digest (and output fingerprint, bits, rounds) that is
// BIT-IDENTICAL to the blocking protocol function run on the same seed.
// Framing/re-chunking exercises the one byte-stream seam the partial-
// read audit in core/engine.h identifies: FrameAssembler must park on a
// truncated frame (never throw, never hand a short buffer to a
// BitReader::expect_at_least site), which is pinned here as a
// regression test.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
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

// Sequential engine drive: immediate whole-frame acks, one boundary per
// round-trip. `wire` (optional) collects every byte the machine emits.
void drive_sequential(core::ProtocolMachine& m,
                      std::vector<std::uint8_t>* wire = nullptr) {
  core::MachineOutput out = m.start();
  if (wire != nullptr) {
    wire->insert(wire->end(), out.bytes.begin(), out.bytes.end());
  }
  std::uint64_t ack = 0;
  while (m.status() == core::MachineStatus::kNeedInput) {
    std::vector<std::uint8_t> acks;
    for (std::uint32_t i = 0; i < out.frames; ++i) {
      core::append_ack_frame(acks, ack++);
    }
    out = m.on_bytes(acks.data(), acks.size());
    if (wire != nullptr) {
      wire->insert(wire->end(), out.bytes.begin(), out.bytes.end());
    }
  }
}

// ---------- framing ----------

TEST(SansioFraming, FrameRoundTrip) {
  core::ProgressFrame f;
  f.kind = core::FrameKind::kProgress;
  f.step = 7;
  f.bits_total = 123456789;
  f.digest = 0xDEADBEEFCAFE;
  std::vector<std::uint8_t> bytes;
  core::append_frame(bytes, f);
  ASSERT_GT(bytes.size(), core::kFrameHeaderBytes);

  core::FrameAssembler asmr;
  asmr.push(bytes.data(), bytes.size());
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(asmr.next(payload));
  core::ProgressFrame back;
  ASSERT_TRUE(core::parse_frame_payload(payload, &back));
  EXPECT_EQ(back.kind, f.kind);
  EXPECT_EQ(back.step, f.step);
  EXPECT_EQ(back.bits_total, f.bits_total);
  EXPECT_EQ(back.digest, f.digest);
  EXPECT_EQ(asmr.pending_bytes(), 0u);
  EXPECT_FALSE(asmr.next(payload));
}

// Property: pushing a frame stream in ANY chunking (split/merged at
// arbitrary byte boundaries) yields the identical frame sequence —
// satellite 2's re-chunking invariance at the assembler level.
TEST(SansioFraming, AssemblerRechunkingProperty) {
  util::Rng rng(0x5A11);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t frames = 1 + rng.below(8);
    std::vector<std::uint8_t> stream;
    std::vector<std::uint64_t> steps;
    for (std::size_t i = 0; i < frames; ++i) {
      core::ProgressFrame f;
      f.kind = static_cast<core::FrameKind>(rng.below(4));
      f.step = rng.next();
      f.bits_total = rng.next();
      f.digest = rng.next();
      steps.push_back(f.step);
      core::append_frame(stream, f);
    }
    core::FrameAssembler asmr;
    std::vector<std::uint64_t> got;
    std::size_t pos = 0;
    while (pos < stream.size()) {
      const std::size_t len =
          std::min<std::size_t>(1 + rng.below(8), stream.size() - pos);
      asmr.push(stream.data() + pos, len);
      pos += len;
      std::vector<std::uint8_t> payload;
      while (asmr.next(payload)) {
        core::ProgressFrame f;
        ASSERT_TRUE(core::parse_frame_payload(payload, &f));
        got.push_back(f.step);
      }
    }
    EXPECT_EQ(got, steps) << "trial " << trial;
    EXPECT_EQ(asmr.pending_bytes(), 0u);
  }
}

TEST(SansioFraming, OversizedHeaderThrowsLengthError) {
  // A header claiming more than kMaxFramePayloadBytes must fail fast —
  // never buffer toward a lying length (the assembler-level analogue of
  // BitReader::expect_at_least).
  std::vector<std::uint8_t> bytes(core::kFrameHeaderBytes, 0xFF);
  core::FrameAssembler asmr;
  asmr.push(bytes.data(), bytes.size());
  std::vector<std::uint8_t> payload;
  EXPECT_THROW(asmr.next(payload), std::length_error);
}

// ---------- single-machine engine behavior ----------

TEST(SansioMachine, TruncatedAckParksNeverThrows) {
  // Satellite 3's regression pin: a partial inbound frame must SUSPEND
  // the machine (kNeedInput + frame_parks), not throw and not advance.
  auto m = core::make_machine("bi", make_cfg(0x717A, 0));
  core::MachineOutput out = m->start();
  ASSERT_EQ(m->status(), core::MachineStatus::kNeedInput);
  ASSERT_EQ(out.frames, 1u);

  std::vector<std::uint8_t> ack;
  core::append_ack_frame(ack, 0);
  const std::uint64_t steps_before = m->steps();
  // First half of the ack: park.
  ASSERT_NO_THROW(m->on_bytes(ack.data(), ack.size() / 2));
  EXPECT_EQ(m->status(), core::MachineStatus::kNeedInput);
  EXPECT_EQ(m->steps(), steps_before);
  EXPECT_EQ(m->frame_parks(), 1u);
  // Second half: resume, one boundary crossed.
  ASSERT_NO_THROW(
      m->on_bytes(ack.data() + ack.size() / 2, ack.size() - ack.size() / 2));
  EXPECT_EQ(m->steps(), steps_before + 1);
}

TEST(SansioMachine, OversizedInboundFrameFailsSession) {
  auto m = core::make_machine("bi", make_cfg(0x717B, 0));
  m->start();
  std::vector<std::uint8_t> lying(core::kFrameHeaderBytes, 0xFF);
  core::MachineOutput out;
  ASSERT_NO_THROW(out = m->on_bytes(lying.data(), lying.size()));
  EXPECT_EQ(m->status(), core::MachineStatus::kFailed);
  EXPECT_FALSE(m->error().empty());
  // The machine still told the peer: one kFailed frame.
  ASSERT_EQ(out.frames, 1u);
}

TEST(SansioMachine, StartTwiceAndEarlyBytesThrow) {
  auto m = core::make_machine("vt", make_cfg(0x717C, 0));
  std::vector<std::uint8_t> b(1, 0);
  EXPECT_THROW(m->on_bytes(b.data(), 1), std::logic_error);
  m->start();
  EXPECT_THROW(m->start(), std::logic_error);
}

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

// Step-by-step replay: the same machine config driven twice emits the
// identical byte stream, frame for frame.
TEST(SansioMachine, SequentialReplayIsByteIdentical) {
  for (const std::string_view kind : core::kMachineKinds) {
    const core::MachineConfig cfg = make_cfg(0x3E9, 11);
    auto m1 = core::make_machine(kind, cfg);
    auto m2 = core::make_machine(kind, cfg);
    std::vector<std::uint8_t> wire1, wire2;
    drive_sequential(*m1, &wire1);
    drive_sequential(*m2, &wire2);
    ASSERT_EQ(m1->status(), core::MachineStatus::kDone) << kind;
    EXPECT_EQ(wire1, wire2) << kind;
    EXPECT_EQ(m1->digest(), m2->digest()) << kind;
    EXPECT_EQ(m1->steps(), m2->steps()) << kind;
    EXPECT_EQ(m1->result_fingerprint(), m2->result_fingerprint()) << kind;
  }
}

// Mid-message park/resume: a byte-at-a-time ack trickle (parking the
// machine between every byte) ends in the identical digest and output.
TEST(SansioMachine, ByteAtATimeTrickleMatchesWholeFrames) {
  for (const std::string_view kind : core::kMachineKinds) {
    const core::MachineConfig cfg = make_cfg(0x7B1C, 5);
    auto whole = core::make_machine(kind, cfg);
    drive_sequential(*whole);
    ASSERT_EQ(whole->status(), core::MachineStatus::kDone) << kind;

    auto trickle = core::make_machine(kind, cfg);
    core::MachineOutput out = trickle->start();
    std::uint64_t ack = 0;
    while (trickle->status() == core::MachineStatus::kNeedInput) {
      std::vector<std::uint8_t> acks;
      for (std::uint32_t i = 0; i < out.frames; ++i) {
        core::append_ack_frame(acks, ack++);
      }
      out = core::MachineOutput{};
      for (std::size_t i = 0;
           i < acks.size() &&
           trickle->status() == core::MachineStatus::kNeedInput;
           ++i) {
        out = trickle->on_bytes(&acks[i], 1);
      }
    }
    ASSERT_EQ(trickle->status(), core::MachineStatus::kDone) << kind;
    EXPECT_GT(trickle->frame_parks(), 0u) << kind;
    EXPECT_EQ(trickle->digest(), whole->digest()) << kind;
    EXPECT_EQ(trickle->result_fingerprint(), whole->result_fingerprint())
        << kind;
    EXPECT_EQ(trickle->cost().bits_total, whole->cost().bits_total) << kind;
  }
}

// ---------- the differential harness proper ----------

// Per core protocol, 200 seeded sessions through the scheduler — seeded
// per-tick shuffle, chunked acks, staggered arrivals — each asserted
// digest-identical (and bits/rounds-identical) to the blocking engine.
TEST(SansioDifferential, SchedulerMatchesBlockingPerKind) {
  constexpr std::size_t kSessions = 200;
  for (const std::string_view kind : core::kMachineKinds) {
    std::vector<BlockingRef> refs(kSessions);
    runtime::Scheduler sched([] {
      runtime::SchedulerOptions o;
      o.seed = 0x5EED;
      o.shuffle = true;
      o.max_ack_latency = 4;
      o.chunk_bytes = 9;  // ack frames are 29 bytes: guaranteed splits
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
    std::uint64_t parked = 0;
    for (std::size_t g = 0; g < kSessions; ++g) {
      const runtime::SessionRecord& rec = sched.record(g);
      ASSERT_EQ(rec.final_status, core::MachineStatus::kDone)
          << kind << " session " << g;
      EXPECT_EQ(rec.digest, refs[g].digest) << kind << " session " << g;
      EXPECT_EQ(rec.bits_total, refs[g].bits) << kind << " session " << g;
      parked += rec.frame_parks;
    }
    EXPECT_EQ(sched.completed(), kSessions) << kind;
    EXPECT_EQ(sched.failed(), 0u) << kind;
    // Chunked acks must have produced real mid-message parks somewhere.
    EXPECT_GT(parked, 0u) << kind;
  }
}

// Random re-chunking property at the machine level (satellite 2): any
// split/merge of the ack stream leaves output and digest unchanged.
TEST(SansioDifferential, RandomRechunkingPropertyPerKind) {
  util::Rng rng(0xC4C4);
  for (const std::string_view kind : core::kMachineKinds) {
    const core::MachineConfig cfg = make_cfg(0xC4C5, 17);
    auto reference = core::make_machine(kind, cfg);
    drive_sequential(*reference);
    ASSERT_EQ(reference->status(), core::MachineStatus::kDone);

    for (int trial = 0; trial < 25; ++trial) {
      auto m = core::make_machine(kind, cfg);
      core::MachineOutput out = m->start();
      std::uint64_t ack = 0;
      std::vector<std::uint8_t> pending;
      while (m->status() == core::MachineStatus::kNeedInput) {
        for (std::uint32_t i = 0; i < out.frames; ++i) {
          core::append_ack_frame(pending, ack++);
        }
        // Deliver a random-size chunk (possibly spanning several frames,
        // possibly mid-frame; occasionally empty).
        const std::size_t len =
            std::min<std::size_t>(rng.below(40), pending.size());
        out = m->on_bytes(pending.data(), len);
        pending.erase(pending.begin(),
                      pending.begin() + static_cast<std::ptrdiff_t>(len));
        if (len == 0 && pending.empty()) break;  // nothing left to feed
      }
      // Flush whatever is still pending.
      while (m->status() == core::MachineStatus::kNeedInput) {
        out = m->on_bytes(pending.data(), pending.size());
        pending.clear();
        for (std::uint32_t i = 0; i < out.frames; ++i) {
          core::append_ack_frame(pending, ack++);
        }
      }
      ASSERT_EQ(m->status(), core::MachineStatus::kDone)
          << kind << " trial " << trial;
      EXPECT_EQ(m->digest(), reference->digest()) << kind << " " << trial;
      EXPECT_EQ(m->result_fingerprint(), reference->result_fingerprint())
          << kind << " " << trial;
    }
  }
}

// Thread invariance: the same fleet sharded over 1, 2 and 4 schedulers
// produces identical aggregates (runtime/scheduler.h's contract).
TEST(SansioDifferential, ServiceRunThreadInvariance) {
  constexpr std::size_t kSessions = 96;
  runtime::SchedulerOptions opts;
  opts.seed = 0x7123;
  opts.max_ack_latency = 3;
  opts.chunk_bytes = 7;
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
    EXPECT_EQ(run->ack_rtt.count(), one.ack_rtt.count());
    EXPECT_EQ(run->ack_rtt.sum(), one.ack_rtt.sum());
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
  spec.seed = 0xFA18;  // a stream that flips or drops in this session
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
  // (retry -> degrade) and identical budget.checks/budget.exhaustions in
  // both modes — the stepping must not re-run (or skip) any
  // between-attempt budget check.
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
    o.chunk_bytes = 9;
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

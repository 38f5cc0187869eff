// Chaos layer: crash/restart, partitions, bursty links, and the session
// recovery built on core::Checkpoint (docs/ROBUSTNESS.md § crash faults).
// Bursts and per-link overlays are sim::FaultPlan knobs; they are pinned
// here with the other link failures the recovery layer must survive.
//
// Invariants pinned here:
//  * ChaosSpec / FaultSpec probabilities are validated at construction —
//    std::invalid_argument outside [0, 1], bad links, bad windows.
//  * Burst and overlay damage counts under fault.* only, and the tracer's
//    fault.injected equals the plan's faults_injected.
//  * Every chaos decision is a deterministic function of (protocol seed,
//    chaos seed): identical sessions produce identical costs, restarts,
//    and answers.
//  * Transient crashes and healed partitions recover to the EXACT
//    intersection; a player that never returns degrades honestly (flagged
//    superset, never an unflagged wrong answer).
//  * Checkpointed recovery replays fewer bits than full-session retry
//    under the same crash schedule.
//  * Facade incident dumps carry the replay context block tools/replay
//    rebuilds sessions from.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "multiparty/coordinator.h"
#include "multiparty/tournament.h"
#include "obs/recorder.h"
#include "obs/tracer.h"
#include "setint.h"
#include "sim/chaos.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/randomness.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

constexpr std::uint64_t kUniverse = std::uint64_t{1} << 18;

util::SetPair make_pair(std::uint64_t seed) {
  util::Rng rng(seed);
  return util::random_set_pair(rng, kUniverse, 64, 16);
}

// ------------------------------------------------------------------
// Construction-time validation (satellite: fail fast on bad specs).

TEST(ChaosValidation, CrashProbabilityOutOfRange) {
  sim::ChaosSpec spec;
  spec.crash.crash_prob = 1.5;
  EXPECT_THROW(sim::ChaosPlan{spec}, std::invalid_argument);
  spec.crash.crash_prob = -0.1;
  EXPECT_THROW(sim::ChaosPlan{spec}, std::invalid_argument);
}

TEST(ChaosValidation, OverrideValidatedToo) {
  sim::ChaosSpec spec;
  sim::CrashSchedule bad;
  bad.crash_prob = 2.0;
  spec.crash_overrides.emplace_back(1, bad);
  EXPECT_THROW(sim::ChaosPlan{spec}, std::invalid_argument);

  sim::ChaosSpec out_of_range;
  out_of_range.crash_overrides.emplace_back(5, sim::CrashSchedule{});
  EXPECT_THROW(sim::ChaosPlan{out_of_range}, std::invalid_argument);
}

TEST(FaultValidation, BurstProbabilitiesOutOfRange) {
  const auto bad = [](auto set_field) {
    sim::FaultSpec spec;
    set_field(spec.burst);
    EXPECT_THROW(sim::FaultPlan{spec}, std::invalid_argument);
  };
  bad([](sim::GilbertElliott& b) { b.p_good_to_bad = 1.01; });
  bad([](sim::GilbertElliott& b) { b.p_bad_to_good = -0.5; });
  bad([](sim::GilbertElliott& b) { b.loss_good = 7.0; });
  bad([](sim::GilbertElliott& b) { b.loss_bad = -1.0; });
  bad([](sim::GilbertElliott& b) { b.flip_good = 1.5; });
  bad([](sim::GilbertElliott& b) { b.flip_bad = 2.0; });
}

TEST(ChaosValidation, PartitionWindowsValidated) {
  sim::ChaosSpec backwards;
  sim::PartitionWindow w;
  w.start_tick = 10;
  w.end_tick = 5;
  backwards.partitions.push_back(w);
  EXPECT_THROW(sim::ChaosPlan{backwards}, std::invalid_argument);

  sim::ChaosSpec self_link;
  w = {};
  w.a = 1;
  w.b = 1;
  w.end_tick = 4;
  self_link.partitions.push_back(w);
  EXPECT_THROW(sim::ChaosPlan{self_link}, std::invalid_argument);
}

TEST(ChaosValidation, TooFewPlayers) {
  sim::ChaosSpec spec;
  spec.players = 1;
  EXPECT_THROW(sim::ChaosPlan{spec}, std::invalid_argument);
}

TEST(FaultValidation, LinkFaultsRejected) {
  sim::FaultPlan plan;
  sim::FaultSpec bad;
  bad.flip_per_bit = 3.0;  // validated like the plan's own spec
  EXPECT_THROW(plan.set_link_faults(0, 1, bad), std::invalid_argument);
  // A fault plan has no player count; the endpoint check it can make is
  // that a link joins two players.
  EXPECT_THROW(plan.set_link_faults(7, 7, sim::FaultSpec{}),
               std::invalid_argument);
  // A burst is the plan's, never an overlay's.
  sim::FaultSpec bursty;
  bursty.burst.loss_good = 0.5;
  EXPECT_THROW(plan.set_link_faults(0, 1, bursty), std::invalid_argument);
  EXPECT_FALSE(plan.enabled());
  EXPECT_EQ(plan.players_needed(), 0u);
}

TEST(FaultValidation, LinkFaultsOffTheRunRejected) {
  // Player 7 does not exist in a two-player run: the run that knows its
  // player count refuses the overlay instead of never firing it.
  sim::FaultPlan plan;
  sim::FaultSpec dead;
  dead.drop_prob = 1.0;
  plan.set_link_faults(0, 7, dead);
  EXPECT_EQ(plan.players_needed(), 8u);

  const util::SetPair p = make_pair(11);
  IntersectOptions options;
  options.universe = kUniverse;
  options.fault_plan = &plan;
  EXPECT_THROW(intersect(p.s, p.t, options), std::invalid_argument);

  util::Rng wrng(12);
  const auto inst = util::random_multi_sets(wrng, kUniverse, 2, 32, 8);
  multiparty::MultipartyParams params;
  params.fault_plan = &plan;
  sim::Network net(2);
  sim::SharedRandomness sh(13);
  EXPECT_THROW(multiparty::coordinator_intersection(net, sh, kUniverse,
                                                    inst.sets, params),
               std::invalid_argument);
  sim::Network tnet(2);
  EXPECT_THROW(multiparty::tournament_intersection(tnet, sh, kUniverse,
                                                   inst.sets, params),
               std::invalid_argument);
  EXPECT_EQ(plan.stats().messages_seen, 0u);

  // An eight-player run has the link {0, 7}, and the overlay fires there.
  const auto wide = util::random_multi_sets(wrng, kUniverse, 8, 32, 8);
  sim::Network wnet(8);
  const auto res = multiparty::coordinator_intersection(wnet, sh, kUniverse,
                                                        wide.sets, params);
  EXPECT_GT(plan.stats().dropped_messages, 0u);
  EXPECT_TRUE(util::is_subset(wide.expected_intersection, res.intersection));
}

TEST(ChaosValidation, FaultSpecOutOfRange) {
  sim::FaultSpec spec;
  spec.drop_prob = 1.2;
  EXPECT_THROW(sim::FaultPlan{spec}, std::invalid_argument);
}

// ------------------------------------------------------------------
// Determinism: chaos is a pure function of (protocol seed, chaos seed).

IntersectResult run_with_chaos(const sim::ChaosSpec& spec, bool checkpoint,
                               std::uint64_t session_seed,
                               const sim::FaultSpec& faults = {}) {
  const util::SetPair p = make_pair(9001);
  sim::ChaosPlan plan(spec, session_seed);
  sim::FaultPlan fault_plan(faults);
  IntersectOptions options;
  options.universe = kUniverse;
  options.seed = session_seed;
  options.chaos_plan = &plan;
  options.fault_plan = &fault_plan;
  options.checkpoint = checkpoint;
  return intersect(p.s, p.t, options);
}

TEST(Chaos, DeterministicAcrossRuns) {
  sim::ChaosSpec spec;
  spec.crash.crash_prob = 0.03;
  spec.crash.restart_ticks = 5;
  sim::FaultSpec burst;
  burst.burst.p_good_to_bad = 0.02;
  burst.burst.p_bad_to_good = 0.25;
  burst.burst.flip_bad = 5e-4;

  const IntersectResult a = run_with_chaos(spec, true, 777, burst);
  const IntersectResult b = run_with_chaos(spec, true, 777, burst);
  EXPECT_EQ(a.intersection, b.intersection);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.bits_replayed, b.bits_replayed);
  EXPECT_EQ(a.verified, b.verified);

  // A different protocol seed draws a different chaos stream (same spec).
  const IntersectResult c = run_with_chaos(spec, true, 778, burst);
  EXPECT_TRUE(c.verified || c.degraded);
}

// ------------------------------------------------------------------
// Recovery semantics.

TEST(Chaos, TransientCrashesRecoverExactly) {
  const util::SetPair p = make_pair(31);
  sim::ChaosSpec spec;
  spec.crash.crash_prob = 0.05;
  spec.crash.restart_ticks = 6;

  std::uint64_t restarts = 0;
  for (std::uint64_t t = 0; t < 8; ++t) {
    sim::ChaosPlan plan(spec, util::mix64(0xCAFE, t));
    IntersectOptions options;
    options.universe = kUniverse;
    options.seed = util::mix64(0xCAFE, t);
    options.chaos_plan = &plan;
    const IntersectResult r = intersect(p.s, p.t, options);
    ASSERT_TRUE(r.verified || r.degraded);
    if (r.verified) {
      EXPECT_EQ(r.intersection, p.expected_intersection);
    }
    // Degraded answers must still be flagged supersets.
    EXPECT_TRUE(util::is_subset(p.expected_intersection, r.intersection));
    restarts += r.restarts;
  }
  // At 5% crash-per-send SOME run must have waited out a crash.
  EXPECT_GT(restarts, 0u);
}

TEST(Chaos, PartitionHealsAndSessionResumes) {
  const util::SetPair p = make_pair(44);
  sim::ChaosSpec spec;
  sim::PartitionWindow w;
  w.a = sim::kAllLinks;
  w.start_tick = 6;
  w.end_tick = 18;
  spec.partitions.push_back(w);

  sim::ChaosPlan plan(spec, 123);
  IntersectOptions options;
  options.universe = kUniverse;
  options.seed = 123;
  options.chaos_plan = &plan;
  const IntersectResult r = intersect(p.s, p.t, options);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.intersection, p.expected_intersection);
  EXPECT_GE(r.restarts, 1u);
  EXPECT_GT(plan.stats().partition_blocks, 0u);
}

TEST(Chaos, DeadPeerDegradesHonestly) {
  const util::SetPair p = make_pair(55);
  sim::ChaosSpec spec;
  sim::CrashSchedule dead;
  dead.crash_prob = 1.0;
  dead.max_crashes = 0;  // never comes back
  spec.crash_overrides.emplace_back(1, dead);

  sim::ChaosPlan plan(spec, 321);
  IntersectOptions options;
  options.universe = kUniverse;
  options.seed = 321;
  options.chaos_plan = &plan;
  const IntersectResult r = intersect(p.s, p.t, options);
  EXPECT_FALSE(r.verified);
  EXPECT_TRUE(r.degraded);
  // Input fallback: an honest superset even though the peer vanished.
  EXPECT_TRUE(util::is_subset(p.expected_intersection, r.intersection));
  EXPECT_GT(plan.stats().permanent_losses, 0u);
}

TEST(Chaos, CheckpointedRecoveryReplaysFewerBits) {
  sim::ChaosSpec spec;
  spec.crash.crash_prob = 0.05;
  spec.crash.restart_ticks = 6;

  std::uint64_t with_ckpt = 0;
  std::uint64_t without_ckpt = 0;
  for (std::uint64_t t = 0; t < 10; ++t) {
    // Same session seed on both arms => identical crash schedules; the
    // only difference is what recovery replays.
    const std::uint64_t seed = util::mix64(0xD00D, t);
    with_ckpt += run_with_chaos(spec, true, seed).bits_replayed;
    without_ckpt += run_with_chaos(spec, false, seed).bits_replayed;
  }
  EXPECT_LT(with_ckpt, without_ckpt);
}

TEST(Chaos, BurstyLinkDamagesFramesButSessionSurvives) {
  const util::SetPair p = make_pair(66);
  sim::FaultSpec spec;
  spec.burst.p_good_to_bad = 0.05;
  spec.burst.p_bad_to_good = 0.3;
  spec.burst.loss_bad = 0.4;
  spec.burst.flip_bad = 1e-3;
  // The stream these expectations were first checked on: a burst seeded
  // from the default chaos seed and this session's seed.
  spec.seed = util::mix64(sim::ChaosSpec{}.seed, 555);

  sim::FaultPlan plan(spec);
  ASSERT_TRUE(plan.enabled());
  IntersectOptions options;
  options.universe = kUniverse;
  options.seed = 555;
  options.fault_plan = &plan;
  const IntersectResult r = intersect(p.s, p.t, options);
  EXPECT_TRUE(r.verified || r.degraded);
  EXPECT_TRUE(util::is_subset(p.expected_intersection, r.intersection));
  EXPECT_GT(plan.stats().burst_state_entries, 0u);
  // Deliveries whose contents were damaged (flipped, truncated, dropped).
  EXPECT_GT(plan.stats().flipped_messages + plan.stats().truncated_messages +
                plan.stats().dropped_messages,
            0u);
}

TEST(Chaos, BurstAndOverlayCountOnlyAsFaults) {
  const util::SetPair p = make_pair(67);
  sim::FaultSpec spec;
  spec.burst.p_good_to_bad = 0.2;
  spec.burst.p_bad_to_good = 0.3;
  spec.burst.loss_bad = 0.4;
  spec.burst.flip_bad = 1e-3;
  spec.seed = 0xB0B;
  sim::FaultPlan plan(spec);
  sim::FaultSpec overlay;  // the facade's one link is {0, 1}
  overlay.duplicate_prob = 0.1;
  overlay.delay_prob = 0.1;
  overlay.truncate_prob = 0.02;
  overlay.seed = 0x0E;
  plan.set_link_faults(0, 1, overlay);

  // An enabled chaos plan whose one partition window opens long after the
  // session ends: every send takes the chaos-gate path and none is blocked,
  // so the damage has both plans to be counted under.
  sim::ChaosSpec never;
  never.partitions.push_back({.a = 0,
                              .b = 1,
                              .start_tick = std::uint64_t{1} << 40,
                              .end_tick = (std::uint64_t{1} << 40) + 1});
  sim::ChaosPlan chaos(never, 4242);
  ASSERT_TRUE(chaos.enabled());

  obs::Tracer tracer;
  IntersectOptions options;
  options.universe = kUniverse;
  options.seed = 4242;
  options.fault_plan = &plan;
  options.chaos_plan = &chaos;
  options.tracer = &tracer;
  const IntersectResult r = intersect(p.s, p.t, options);
  EXPECT_TRUE(util::is_subset(p.expected_intersection, r.intersection));
  EXPECT_GT(chaos.stats().ticks, 0u);
  EXPECT_EQ(chaos.stats().blocked_sends, 0u);

  const auto& counters = tracer.metrics().counters();
  const auto injected = counters.find("fault.injected");
  ASSERT_NE(injected, counters.end());
  EXPECT_GT(plan.stats().burst_state_entries, 0u);
  EXPECT_GT(plan.stats().duplicated_messages, 0u);
  EXPECT_EQ(injected->second.value(), plan.stats().faults_injected);
  // Only the gate's own block counters may carry the chaos. prefix.
  for (const auto& [name, counter] : counters) {
    if (name.rfind("chaos.", 0) != 0) continue;
    EXPECT_TRUE(name == "chaos.crash_blocks" ||
                name == "chaos.partition_blocks")
        << name;
  }
}

// ------------------------------------------------------------------
// Multiparty: the coordinator survives crash-restart and skips the dead.

TEST(Chaos, CoordinatorSurvivesTransientCrashes) {
  util::Rng wrng(202);
  const auto inst =
      util::random_multi_sets(wrng, std::uint64_t{1} << 14, 6, 32, 8);
  sim::ChaosSpec spec;
  spec.players = 6;
  spec.crash.crash_prob = 0.02;
  spec.crash.restart_ticks = 4;
  sim::ChaosPlan plan(spec, 88);

  sim::Network net(6);
  sim::SharedRandomness sh(99);
  multiparty::MultipartyParams params;
  params.chaos = &plan;
  const auto res = multiparty::coordinator_intersection(
      net, sh, std::uint64_t{1} << 14, inst.sets, params);
  if (!res.degraded) {
    EXPECT_EQ(res.intersection, inst.expected_intersection);
  }
  EXPECT_TRUE(util::is_subset(inst.expected_intersection, res.intersection));
}

TEST(Chaos, CoordinatorDegradesWhenAPlayerNeverReturns) {
  util::Rng wrng(303);
  const auto inst =
      util::random_multi_sets(wrng, std::uint64_t{1} << 14, 6, 32, 8);
  sim::ChaosSpec spec;
  spec.players = 6;
  sim::CrashSchedule dead;
  dead.crash_prob = 1.0;
  dead.max_crashes = 0;
  spec.crash_overrides.emplace_back(3, dead);
  sim::ChaosPlan plan(spec, 77);

  sim::Network net(6);
  sim::SharedRandomness sh(99);
  multiparty::MultipartyParams params;
  params.chaos = &plan;
  const auto res = multiparty::coordinator_intersection(
      net, sh, std::uint64_t{1} << 14, inst.sets, params);
  EXPECT_TRUE(res.degraded);
  EXPECT_GT(res.degraded_pairs, 0u);
  // Honest degradation: still a superset of the true m-way intersection.
  EXPECT_TRUE(util::is_subset(inst.expected_intersection, res.intersection));
}

// ------------------------------------------------------------------
// Satellite: incident dumps carry the tools/replay context block.

TEST(Chaos, IncidentDumpCarriesReplayContext) {
  const util::SetPair p = make_pair(91);
  obs::FlightRecorder rec(/*capacity=*/128);
  const std::string prefix = testing::TempDir() + "chaos_dump";
  rec.set_dump_path(prefix, /*max_dumps=*/4);

  sim::FaultSpec fault;
  fault.flip_per_bit = 5e-3;  // loud enough to raise an integrity incident
  fault.seed = 1234;
  sim::FaultPlan faults(fault);

  IntersectOptions options;
  options.universe = kUniverse;
  options.seed = 77;
  options.recorder = &rec;
  options.fault_plan = &faults;
  const IntersectResult r = intersect(p.s, p.t, options);
  EXPECT_TRUE(util::is_subset(p.expected_intersection, r.intersection));

  ASSERT_FALSE(rec.dump_files().empty());
  std::ifstream in(rec.dump_files().front());
  ASSERT_TRUE(in.good());
  std::string meta_line;
  ASSERT_TRUE(std::getline(in, meta_line));
  // The meta line is what tools/replay rebuilds the session from.
  EXPECT_NE(meta_line.find("\"transcript_digest\""), std::string::npos);
  EXPECT_NE(meta_line.find("\"context\""), std::string::npos);
  EXPECT_NE(meta_line.find("\"kind\":\"two_party\""), std::string::npos);
  EXPECT_NE(meta_line.find("\"fault.flip_per_bit\""), std::string::npos);
  EXPECT_NE(meta_line.find("\"retry.max_attempts\""), std::string::npos);
  EXPECT_NE(meta_line.find("\"s\""), std::string::npos);
}

}  // namespace
}  // namespace setint

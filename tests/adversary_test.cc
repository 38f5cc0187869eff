// Byzantine-peer hardening (docs/ROBUSTNESS.md, "Threat model").
//
// The stochastic suite (robustness_test.cc) assumes an honest peer over a
// hostile link; here the PEER is hostile: a sim::Adversary substitutes one
// party's frames with crafted ones (inflated length prefixes, unary bombs,
// garbage, replays, truncations, semantic lies). Integrity framing cannot
// help — the adversary is the sender and checksums its own bytes — so the
// defenses under test are core::ResourceLimits (channel + decoder budget
// enforcement), the named decoder guards, and the certificate / retry /
// degradation machinery. The contract pinned here and by tests/fuzz:
//
//   * the honest side never crashes or hangs, whatever the peer sends;
//   * its output is always a subset of its own input;
//   * a Byzantine player corrupts only results derived from its own
//     input — multiparty runs between honest players stay exact;
//   * disabled limits are free: zero-fault runs are bit-for-bit identical
//     with and without a limits object installed.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>

#include "core/resource_limits.h"
#include "multiparty/coordinator.h"
#include "multiparty/tournament.h"
#include "obs/tracer.h"
#include "setint.h"
#include "sim/adversary.h"
#include "sim/channel.h"
#include "sim/chaos.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/randomness.h"
#include "util/bitio.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

std::uint64_t counter(obs::Tracer& tracer, const std::string& name) {
  return tracer.metrics().counter(name).value();
}

// ---- decoder guards (satellite: capped unary runs) -----------------------

// An all-zeros frame must hit the 63-bit zero-run cap with a NAMED
// rejection, not widen the decode loop past 64 bits.
TEST(DecoderHardening, GammaZeroRunRejectedByName) {
  util::BitBuffer zeros;
  for (int i = 0; i < 80; ++i) zeros.append_bit(false);
  util::BitReader reader(zeros);
  try {
    (void)reader.read_elias_gamma();
    FAIL() << "gamma decode accepted an 80-bit zero run";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("gamma"), std::string::npos)
        << e.what();
  }
}

// A zero-run truncated before the cap is an out-of-bits condition — still
// a loud, typed failure rather than a hang or a garbage value.
TEST(DecoderHardening, GammaTruncatedZeroBufferRejected) {
  util::BitBuffer zeros;
  for (int i = 0; i < 32; ++i) zeros.append_bit(false);
  util::BitReader reader(zeros);
  EXPECT_THROW((void)reader.read_elias_gamma(), std::out_of_range);
}

// A unary run claiming a quotient that cannot be part of any encodable
// 64-bit value is a crafted frame; the reader names the rice guard.
TEST(DecoderHardening, RiceUnaryOverflowRejectedByName) {
  util::BitBuffer ones;
  for (int i = 0; i < 80; ++i) ones.append_bit(true);
  util::BitReader reader(ones);
  try {
    // With b = 62 any quotient above 3 overflows q << b.
    (void)reader.read_rice(62);
    FAIL() << "rice decode accepted an overflowing unary quotient";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("rice"), std::string::npos)
        << e.what();
  }
}

// Truncated mid-codeword rice input fails loudly too (the q <= max_q
// prefix is legal, the buffer just ends).
TEST(DecoderHardening, RiceTruncatedBufferRejected) {
  util::BitBuffer ones;
  for (int i = 0; i < 12; ++i) ones.append_bit(true);
  util::BitReader reader(ones);
  EXPECT_THROW((void)reader.read_rice(8), std::out_of_range);
}

// ---- resource limits: unit enforcement -----------------------------------

TEST(ResourceLimitsUnit, DisabledByDefault) {
  core::ResourceLimits limits;
  EXPECT_FALSE(limits.enabled());
  limits.max_decoded_items = 1;
  EXPECT_TRUE(limits.enabled());
}

TEST(ResourceLimitsUnit, ChannelEnforcesMaxMessageBits) {
  core::ResourceLimits limits;
  limits.max_message_bits = 64;
  obs::Tracer tracer;
  sim::Channel channel;
  channel.set_tracer(&tracer);
  channel.set_limits(&limits);

  util::BitBuffer small;
  small.append_bits(0x5a, 8);
  EXPECT_NO_THROW(channel.send(sim::PartyId::kAlice, small));

  util::BitBuffer big;
  for (int i = 0; i < 128; ++i) big.append_bit(i % 2 == 0);
  EXPECT_THROW(channel.send(sim::PartyId::kBob, big),
               core::ResourceLimitError);
  EXPECT_EQ(counter(tracer, "limit.message_bits_breaches"), 1u);
  // The oversized frame is still metered — the attacker pays for the
  // bandwidth even though delivery is refused.
  EXPECT_EQ(channel.cost().bits_total, 8u + 128u);
}

TEST(ResourceLimitsUnit, ChannelEnforcesMaxTotalBits) {
  core::ResourceLimits limits;
  limits.max_total_bits = 150;
  obs::Tracer tracer;
  sim::Channel channel;
  channel.set_tracer(&tracer);
  channel.set_limits(&limits);

  util::BitBuffer frame;
  for (int i = 0; i < 64; ++i) frame.append_bit(true);
  EXPECT_NO_THROW(channel.send(sim::PartyId::kAlice, frame));  // 64
  EXPECT_NO_THROW(channel.send(sim::PartyId::kBob, frame));    // 128
  EXPECT_THROW(channel.send(sim::PartyId::kAlice, frame),      // 192 > 150
               core::ResourceLimitError);
  EXPECT_EQ(counter(tracer, "limit.total_bits_breaches"), 1u);
}

TEST(ResourceLimitsUnit, ChargeExtraRoundsEnforcesMaxRounds) {
  core::ResourceLimits limits;
  limits.max_rounds = 3;
  obs::Tracer tracer;
  sim::Channel channel;
  channel.set_tracer(&tracer);
  channel.set_limits(&limits);
  EXPECT_NO_THROW(channel.charge_extra_rounds(2));
  EXPECT_THROW(channel.charge_extra_rounds(5), core::ResourceLimitError);
  EXPECT_EQ(counter(tracer, "limit.rounds_breaches"), 1u);
  // Like bits, the rounds are charged before the refusal.
  EXPECT_EQ(channel.cost().rounds, 7u);
}

TEST(ResourceLimitsUnit, ChannelReaderEnforcesMaxDecodedItems) {
  core::ResourceLimits limits;
  limits.max_decoded_items = 4;
  sim::Channel channel;
  channel.set_limits(&limits);

  util::BitBuffer encoded;
  util::append_set(encoded, util::Set{1, 3, 5, 7, 9, 11, 13, 15});
  util::BitReader reader = channel.reader(encoded);
  EXPECT_THROW((void)util::read_set(reader), core::ResourceLimitError);

  // The same frame decodes fine through a limit-free reader.
  util::BitReader free_reader(encoded);
  EXPECT_EQ(util::read_set(free_reader).size(), 8u);
}

// The items budget is per-reader (per decoder invocation), not global:
// two frames of 3 items each pass a cap of 4.
TEST(ResourceLimitsUnit, ItemsBudgetIsPerReader) {
  core::ResourceLimits limits;
  limits.max_decoded_items = 4;
  sim::Channel channel;
  channel.set_limits(&limits);
  util::BitBuffer encoded;
  util::append_set(encoded, util::Set{2, 4, 6});
  for (int pass = 0; pass < 2; ++pass) {
    util::BitReader reader = channel.reader(encoded);
    EXPECT_NO_THROW((void)util::read_set(reader));
  }
}

// ---- limits are free when unset (acceptance criterion) -------------------

// A zero-fault facade run must be bit-for-bit identical with no limits,
// with a default (disabled) limits object, and with the generous
// for_workload profile: enforcement adds no protocol bits, only checks.
TEST(ResourceLimitsUnit, LimitsAreFreeOnHonestRuns) {
  util::Rng rng(0xA1);
  const util::SetPair pair = util::random_set_pair(rng, 1u << 14, 32, 8);

  IntersectOptions plain;
  plain.universe = 1u << 14;
  const IntersectResult baseline = intersect(pair.s, pair.t, plain);
  EXPECT_TRUE(baseline.verified);
  EXPECT_EQ(baseline.intersection, pair.expected_intersection);

  IntersectOptions limited = plain;
  limited.limits = core::ResourceLimits::for_workload(1u << 14, 32);
  ASSERT_TRUE(limited.limits.enabled());
  const IntersectResult capped = intersect(pair.s, pair.t, limited);

  EXPECT_EQ(capped.bits, baseline.bits);
  EXPECT_EQ(capped.rounds, baseline.rounds);
  EXPECT_EQ(capped.repetitions, baseline.repetitions);
  EXPECT_EQ(capped.intersection, baseline.intersection);
  EXPECT_TRUE(capped.verified);
  EXPECT_FALSE(capped.degraded);
}

// ---- the inflated-length attack, with and without the guard --------------

// gamma64(N) + N one-bits is a VALID canonical-set encoding of {0..N-1}:
// a few honest bytes of claimed length amplify into N materialized items.
// Without limits the decoder obligingly allocates all of it; with a
// max_decoded_items budget the same frame dies in expect_at_least before
// the allocation. This is the load-bearing demo for resource limits
// (bench/exp_adversary measures the same pair of outcomes).
TEST(AdversaryAttack, InflatedLengthBlowsPastItemsBudget) {
  sim::AdversarySpec spec;
  spec.party = sim::PartyId::kBob;
  spec.attack = sim::AttackClass::kInflatedLength;
  spec.attack_prob = 1.0;
  spec.frame_bits = 1u << 15;
  spec.seed = 7;

  // Unlimited decode: the crafted frame materializes frame_bits items.
  {
    sim::Adversary adversary(spec);
    sim::Channel channel;
    channel.set_adversary(&adversary);
    util::BitBuffer honest;
    util::append_set(honest, util::Set{1, 2, 3});
    const util::BitBuffer delivered =
        channel.send(sim::PartyId::kBob, honest);
    util::BitReader reader = channel.reader(delivered);
    const util::Set decoded = util::read_set(reader);
    EXPECT_EQ(decoded.size(), spec.frame_bits);
    EXPECT_EQ(adversary.stats().inflated_lengths, 1u);
  }

  // With the items budget the identical frame is refused up front.
  {
    sim::Adversary adversary(spec);
    core::ResourceLimits limits;
    limits.max_decoded_items = 64;
    sim::Channel channel;
    channel.set_adversary(&adversary);
    channel.set_limits(&limits);
    util::BitBuffer honest;
    util::append_set(honest, util::Set{1, 2, 3});
    const util::BitBuffer delivered =
        channel.send(sim::PartyId::kBob, honest);
    util::BitReader reader = channel.reader(delivered);
    EXPECT_THROW((void)util::read_set(reader), core::ResourceLimitError);
  }
}

// ---- end-to-end attack sweep (the facade survives every class) -----------

TEST(AdversaryAttack, EveryAttackClassIsSurvivable) {
  static constexpr sim::AttackClass kClasses[] = {
      sim::AttackClass::kInflatedLength, sim::AttackClass::kUnaryBomb,
      sim::AttackClass::kRandomGarbage,  sim::AttackClass::kReplay,
      sim::AttackClass::kTruncate,       sim::AttackClass::kSemanticLie,
      sim::AttackClass::kMixed,
  };
  int seed_salt = 0;
  for (const sim::AttackClass attack : kClasses) {
    const char* name = sim::attack_class_name(attack);
    util::Rng rng(0x5EED + seed_salt);
    const util::SetPair pair = util::random_set_pair(rng, 1u << 12, 24, 6);

    sim::AdversarySpec spec;
    spec.party = sim::PartyId::kBob;
    spec.attack = attack;
    spec.attack_prob = 1.0;
    spec.frame_bits = 1u << 12;
    spec.lie_universe = 1u << 12;
    spec.seed = 0xAD00 + static_cast<std::uint64_t>(seed_salt);
    sim::Adversary adversary(spec);

    IntersectOptions options;
    options.universe = 1u << 12;
    options.seed = 0xC0DE + static_cast<std::uint64_t>(seed_salt);
    options.adversary = &adversary;
    options.limits = core::ResourceLimits::for_workload(1u << 12, 24);
    options.retry.max_attempts = 4;
    options.retry.degraded_attempts = 2;

    IntersectResult result;
    EXPECT_NO_THROW(result = intersect(pair.s, pair.t, options)) << name;
    // The one unconditional guarantee against a lying peer: the honest
    // side's answer never contains an element it does not hold.
    EXPECT_TRUE(util::is_subset(result.intersection, pair.s)) << name;
    EXPECT_GT(adversary.stats().frames_seen, 0u) << name;
    EXPECT_GT(adversary.stats().frames_crafted, 0u) << name;
    ++seed_salt;
  }
}

// Same spec, same seeds, twice: identical results and identical attack
// streams (the BENCH_adversary.json determinism contract).
TEST(AdversaryAttack, AttackStreamIsDeterministic) {
  util::Rng rng(0xD7);
  const util::SetPair pair = util::random_set_pair(rng, 1u << 12, 24, 6);
  auto run = [&pair] {
    sim::AdversarySpec spec;
    spec.party = sim::PartyId::kBob;
    spec.attack = sim::AttackClass::kMixed;
    spec.attack_prob = 0.5;
    spec.frame_bits = 1u << 12;
    spec.lie_universe = 1u << 12;
    spec.seed = 0xDA;
    sim::Adversary adversary(spec);
    IntersectOptions options;
    options.universe = 1u << 12;
    options.adversary = &adversary;
    options.limits = core::ResourceLimits::for_workload(1u << 12, 24);
    options.retry.max_attempts = 4;
    options.retry.degraded_attempts = 2;
    const IntersectResult result = intersect(pair.s, pair.t, options);
    return std::make_tuple(result.intersection, result.bits, result.rounds,
                           result.repetitions, result.degraded,
                           adversary.stats().frames_seen,
                           adversary.stats().frames_crafted);
  };
  EXPECT_EQ(run(), run());
}

// A pure resource-exhaustion attacker (oversized frames on every message)
// burns the retry budget through limit breaches, then the run degrades
// honestly to the own-input superset — and every step shows up in the
// adversary.* / limit.* / retry.* / degraded.* metrics.
TEST(AdversaryAttack, MetricsAttributeBreachesAndDegradation) {
  util::Rng rng(0xE1);
  const util::SetPair pair = util::random_set_pair(rng, 1u << 12, 24, 6);

  sim::AdversarySpec spec;
  spec.party = sim::PartyId::kBob;
  spec.attack = sim::AttackClass::kInflatedLength;
  spec.attack_prob = 1.0;
  // Larger than for_workload's per-message cap, so every crafted frame is
  // a guaranteed message-bits breach.
  spec.frame_bits = 1u << 17;
  spec.seed = 0xE2;
  sim::Adversary adversary(spec);

  obs::Tracer tracer;
  IntersectOptions options;
  options.universe = 1u << 12;
  options.tracer = &tracer;
  options.adversary = &adversary;
  options.limits = core::ResourceLimits::for_workload(1u << 12, 24);
  options.retry.max_attempts = 4;
  options.retry.degraded_attempts = 2;
  ASSERT_GT(spec.frame_bits, options.limits.max_message_bits);

  const IntersectResult result = intersect(pair.s, pair.t, options);
  EXPECT_FALSE(result.verified);
  EXPECT_TRUE(result.degraded);
  // Every attempt (including the degraded ones) dies on the oversized
  // frame, so the fallback is the honest side's own input.
  EXPECT_EQ(result.intersection, pair.s);

  EXPECT_EQ(counter(tracer, "adversary.crafted"),
            adversary.stats().frames_crafted);
  EXPECT_EQ(counter(tracer, "adversary.inflated-length"),
            adversary.stats().inflated_lengths);
  EXPECT_GT(counter(tracer, "limit.message_bits_breaches"), 0u);
  // The certified attempts each breach once and burn a retry.
  EXPECT_EQ(counter(tracer, "limit.breaches"), options.retry.max_attempts);
  EXPECT_EQ(counter(tracer, "retry.attempts"), result.repetitions - 1);
  EXPECT_EQ(counter(tracer, "degraded.runs"), 1u);
  EXPECT_EQ(counter(tracer, "degraded.input_fallbacks"), 1u);
}

// ---- multiparty: one lying player ----------------------------------------

// Coordinator topology, honest coordinator, Byzantine member: every pair
// with an honest member stays exact, so the final intersection is a
// subset of every honest player's set — the lying player corrupts only
// results derived from its own input.
TEST(ByzantineMultiparty, CoordinatorHonestSetsStillConstrainResult) {
  util::Rng rng(0xB1);
  const util::MultiSetInstance instance =
      util::random_multi_sets(rng, 1u << 12, /*players=*/6, /*k=*/24,
                              /*shared=*/6);
  const std::size_t byzantine = 2;

  sim::AdversarySpec spec;
  spec.attack = sim::AttackClass::kMixed;
  spec.attack_prob = 1.0;
  spec.frame_bits = 1u << 12;
  spec.lie_universe = 1u << 12;
  spec.seed = 0xB2;
  sim::Adversary adversary(spec);

  obs::Tracer tracer;
  sim::Network network(instance.sets.size());
  network.set_tracer(&tracer);
  sim::SharedRandomness shared(0xB3);

  multiparty::MultipartyParams params;
  params.retry.max_attempts = 6;
  params.retry.degraded_attempts = 2;
  params.adversary = &adversary;
  params.byzantine_player = byzantine;
  params.limits = core::ResourceLimits::for_workload(1u << 12, 24);

  const multiparty::MultipartyResult result =
      multiparty::coordinator_intersection(network, shared, 1u << 12,
                                           instance.sets, params);

  util::Set honest_intersection;
  bool first = true;
  for (std::size_t i = 0; i < instance.sets.size(); ++i) {
    if (i == byzantine) continue;
    honest_intersection =
        first ? instance.sets[i]
              : util::set_intersection(honest_intersection, instance.sets[i]);
    first = false;
  }
  EXPECT_TRUE(util::is_subset(result.intersection, honest_intersection));
  EXPECT_GT(adversary.stats().frames_crafted, 0u);
  EXPECT_EQ(counter(tracer, "mp.byzantine_pairs"), 1u);
  // S3: the network-level counters agree with the result's own
  // accounting, Byzantine pressure included.
  EXPECT_EQ(counter(tracer, "mp.repetitions"), result.total_repetitions);
  EXPECT_EQ(counter(tracer, "mp.degraded_pairs"), result.degraded_pairs);
}

// Tournament topology: the Byzantine player's (uncertified) match is
// flagged and skipped, the rest of the bracket stays exact, and the
// certified root keeps the superset contract: the true m-way intersection
// is never lost, only the lying player's constraint.
TEST(ByzantineMultiparty, TournamentSkipsTheLiarsMatchAndStaysSafe) {
  util::Rng rng(0xB4);
  const util::MultiSetInstance instance =
      util::random_multi_sets(rng, 1u << 12, /*players=*/8, /*k=*/24,
                              /*shared=*/5);
  const std::size_t byzantine = 5;

  sim::AdversarySpec spec;
  spec.attack = sim::AttackClass::kMixed;
  spec.attack_prob = 1.0;
  spec.frame_bits = 1u << 12;
  spec.lie_universe = 1u << 12;
  spec.seed = 0xB5;
  sim::Adversary adversary(spec);

  obs::Tracer tracer;
  sim::Network network(instance.sets.size());
  network.set_tracer(&tracer);
  sim::SharedRandomness shared(0xB6);

  multiparty::MultipartyParams params;
  params.retry.max_attempts = 4;
  params.retry.degraded_attempts = 2;
  params.adversary = &adversary;
  params.byzantine_player = byzantine;
  params.limits = core::ResourceLimits::for_workload(1u << 12, 24);

  const multiparty::MultipartyResult result =
      multiparty::tournament_intersection(network, shared, 1u << 12,
                                          instance.sets, params);

  // Superset contract: no true element is ever silently dropped.
  EXPECT_TRUE(
      util::is_subset(instance.expected_intersection, result.intersection));
  // The carried candidate chain runs through honest player 0.
  EXPECT_TRUE(util::is_subset(result.intersection, instance.sets[0]));
  // The liar's match cannot advance (every attempt is crafted-frame
  // touched), so the run is flagged degraded.
  EXPECT_TRUE(result.degraded);
  EXPECT_GE(result.degraded_pairs, 1u);
  EXPECT_GE(counter(tracer, "mp.byzantine_pairs"), 1u);
  EXPECT_GT(counter(tracer, "mp.skipped_matches"), 0u);
  EXPECT_EQ(counter(tracer, "mp.repetitions"), result.total_repetitions);
  EXPECT_EQ(counter(tracer, "mp.degraded_pairs"), result.degraded_pairs);
}

// Control: the same multiparty workloads with no adversary stay exact —
// honest players are untouched by the Byzantine plumbing.
TEST(ByzantineMultiparty, HonestRunsStayExactWithByzantinePlumbingIdle) {
  util::Rng rng(0xB7);
  const util::MultiSetInstance instance =
      util::random_multi_sets(rng, 1u << 12, /*players=*/6, /*k=*/24,
                              /*shared=*/4);
  sim::Network network(instance.sets.size());
  sim::SharedRandomness shared(0xB8);
  multiparty::MultipartyParams params;
  params.limits = core::ResourceLimits::for_workload(1u << 12, 24);
  const multiparty::MultipartyResult result =
      multiparty::coordinator_intersection(network, shared, 1u << 12,
                                           instance.sets, params);
  EXPECT_EQ(result.intersection, instance.expected_intersection);
  EXPECT_FALSE(result.degraded);
}

// ---- S3: metrics match result fields under stochastic faults -------------

// Both topologies run every pair through the same session driver, so the
// same network counters agree with the same result fields on both. The
// governed rows add a dead link (0, 1) behind a breaker and transient
// crashes, so the breaker and restart counters move too.
struct MetricsCase {
  const char* name;
  bool tournament;
  std::uint64_t workload_seed;
  std::size_t players;
  double drop_prob;
  double truncate_prob;
  std::uint64_t fault_seed;
  std::uint64_t shared_seed;
  bool governed;
};

TEST(MetricsMatch, CountersMatchResultFields) {
  const MetricsCase kCases[] = {
      {"coordinator", false, 0xC1, 6, 0.03, 0.0, 0xC2, 0xC3, false},
      {"tournament", true, 0xC4, 8, 0.0, 0.03, 0xC5, 0xC6, false},
      {"coordinator/governed", false, 0xC1, 6, 0.03, 0.0, 0xC2, 0xC3, true},
      {"tournament/governed", true, 0xC4, 8, 0.0, 0.03, 0xC5, 0xC6, true},
  };
  for (const MetricsCase& c : kCases) {
    SCOPED_TRACE(c.name);
    util::Rng rng(c.workload_seed);
    const util::MultiSetInstance instance = util::random_multi_sets(
        rng, 1u << 12, c.players, /*k=*/24, /*shared=*/5);
    sim::FaultSpec fault_spec;
    fault_spec.flip_per_bit = 0.004;
    fault_spec.drop_prob = c.drop_prob;
    fault_spec.truncate_prob = c.truncate_prob;
    fault_spec.seed = c.fault_seed;
    sim::FaultPlan plan(fault_spec);
    sim::ChaosSpec chaos_spec;
    chaos_spec.players = c.players;
    chaos_spec.crash.crash_prob = 0.02;
    chaos_spec.crash.restart_ticks = 4;
    sim::ChaosPlan chaos(chaos_spec, 0xC7);

    obs::Tracer tracer;
    sim::Network network(instance.sets.size());
    network.set_tracer(&tracer);
    sim::SharedRandomness shared(c.shared_seed);
    multiparty::MultipartyParams params;
    params.fault_plan = &plan;
    params.retry.max_attempts = 6;
    if (c.governed) {
      sim::FaultSpec drop_all;
      drop_all.drop_prob = 1.0;
      drop_all.seed = 0xC8;
      plan.set_link_faults(0, 1, drop_all);
      params.breaker.failure_threshold = 2;
      params.chaos = &chaos;
    }

    const multiparty::MultipartyResult result =
        c.tournament
            ? multiparty::tournament_intersection(network, shared, 1u << 12,
                                                  instance.sets, params)
            : multiparty::coordinator_intersection(network, shared, 1u << 12,
                                                   instance.sets, params);

    EXPECT_GT(plan.stats().faults_injected, 0u);
    // A star of m - 1 pairs or a bracket of m - 1 matches, none skipped.
    const std::uint64_t pairs = instance.sets.size() - 1;
    EXPECT_EQ(counter(tracer, "mp.pairwise_runs"), pairs);
    EXPECT_EQ(counter(tracer, "mp.repetitions"), result.total_repetitions);
    EXPECT_EQ(counter(tracer, "retry.attempts"),
              result.total_repetitions - pairs);
    EXPECT_EQ(counter(tracer, "breaker.opens"), result.breaker_opens);
    EXPECT_EQ(counter(tracer, "chaos.restarts"), result.total_restarts);
    EXPECT_EQ(counter(tracer, "mp.degraded_pairs"), result.degraded_pairs);
    if (c.governed) {
      EXPECT_GT(result.breaker_opens, 0u);
      EXPECT_GT(result.total_restarts, 0u);
    }
    EXPECT_TRUE(
        util::is_subset(instance.expected_intersection, result.intersection));
  }
}

TEST(MetricsMatch, FacadeRetryCountersMatchRepetitions) {
  util::Rng rng(0xC7);
  const util::SetPair pair = util::random_set_pair(rng, 1u << 12, 24, 6);
  sim::FaultSpec fault_spec;
  fault_spec.flip_per_bit = 0.01;
  fault_spec.seed = 0xC8;
  sim::FaultPlan plan(fault_spec);

  obs::Tracer tracer;
  IntersectOptions options;
  options.universe = 1u << 12;
  options.tracer = &tracer;
  options.fault_plan = &plan;
  options.retry.max_attempts = 8;

  const IntersectResult result = intersect(pair.s, pair.t, options);
  EXPECT_EQ(counter(tracer, "retry.attempts"), result.repetitions - 1);
  EXPECT_EQ(counter(tracer, "degraded.runs"), result.degraded ? 1u : 0u);
  if (result.verified) {
    EXPECT_EQ(counter(tracer, "mp.repetitions"), result.repetitions);
    EXPECT_EQ(result.intersection, pair.expected_intersection);
  } else {
    EXPECT_TRUE(result.degraded);
    EXPECT_TRUE(
        util::is_subset(pair.expected_intersection, result.intersection));
  }
}

}  // namespace
}  // namespace setint

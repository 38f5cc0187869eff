// Tests for the main protocol (Algorithm 1 / Theorems 1.1, 3.6): layout
// construction, exactness across (k, r, overlap) sweeps, the always-true
// superset invariant, round bounds, diagnostics, stress with hostile
// parameters, the verdict cross-check, and the worst-case fallback.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/basic_intersection.h"
#include "core/tree_parties.h"
#include "core/verification_tree.h"
#include "multiparty/coordinator.h"
#include "obs/tracer.h"
#include "sim/adversary.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "util/iterated_log.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

// ---------- tree layout ----------

TEST(TreeLayout, PartitionsAreNestedAndComplete) {
  for (std::size_t leaves : {1u, 2u, 7u, 64u, 1000u, 4096u}) {
    for (int r : {1, 2, 3, 4, 6}) {
      const auto layout = core::verification_tree_layout(leaves, r);
      ASSERT_EQ(layout.size(), static_cast<std::size_t>(r) + 1);
      // Root covers everything.
      ASSERT_EQ(layout.back().size(), 1u);
      EXPECT_EQ(layout.back()[0].first, 0u);
      EXPECT_EQ(layout.back()[0].second, leaves);
      // Level 0 is the singletons.
      ASSERT_EQ(layout[0].size(), leaves);
      for (std::size_t i = 0; i < leaves; ++i) {
        EXPECT_EQ(layout[0][i].first, i);
        EXPECT_EQ(layout[0][i].second, i + 1);
      }
      // Each level partitions [0, leaves) and nests inside the next.
      for (std::size_t lvl = 0; lvl + 1 < layout.size(); ++lvl) {
        std::size_t cursor = 0;
        std::size_t parent = 0;
        for (const auto& [lo, hi] : layout[lvl]) {
          EXPECT_EQ(lo, cursor);
          EXPECT_LT(lo, hi);
          cursor = hi;
          while (layout[lvl + 1][parent].second <= lo) ++parent;
          EXPECT_GE(lo, layout[lvl + 1][parent].first);
          EXPECT_LE(hi, layout[lvl + 1][parent].second);
        }
        EXPECT_EQ(cursor, leaves);
      }
    }
  }
}

TEST(TreeLayout, CoverSizesFollowIteratedLog) {
  const std::size_t k = 4096;
  const int r = 4;
  const auto layout = core::verification_tree_layout(k, r);
  // Level-i nodes cover ~log^(r-i) k leaves.
  for (int i = 1; i < r; ++i) {
    const double expect = util::iterated_log(r - i, static_cast<double>(k));
    const auto& ranges = layout[static_cast<std::size_t>(i)];
    const double avg = static_cast<double>(k) / static_cast<double>(ranges.size());
    EXPECT_NEAR(avg, expect, expect * 0.8 + 1.5) << "level " << i;
  }
}

TEST(TreeLayout, RejectsBadArguments) {
  EXPECT_THROW(core::verification_tree_layout(0, 2), std::invalid_argument);
  EXPECT_THROW(core::verification_tree_layout(8, 0), std::invalid_argument);
}

// ---------- protocol correctness ----------

struct TreeCase {
  std::size_t k;
  double alpha;  // intersection fraction
  int r;         // 0 = auto (log* k)
};

class TreeProtocol : public ::testing::TestWithParam<TreeCase> {};

TEST_P(TreeProtocol, ComputesExactIntersection) {
  const TreeCase c = GetParam();
  util::Rng wrng(c.k + static_cast<std::uint64_t>(c.alpha * 100) + c.r);
  const auto shared_count =
      static_cast<std::size_t>(c.alpha * static_cast<double>(c.k));
  const util::SetPair p =
      util::random_set_pair(wrng, std::uint64_t{1} << 30, c.k, shared_count);

  core::VerificationTreeParams params;
  params.rounds_r = c.r;
  int exact = 0;
  const int trials = 5;
  for (int trial = 0; trial < trials; ++trial) {
    sim::SharedRandomness shared(1000u * c.k + static_cast<std::uint64_t>(trial));
    sim::Channel ch;
    const core::IntersectionOutput out = core::verification_tree_intersection(
        ch, shared, trial, std::uint64_t{1} << 30, p.s, p.t, params);
    // Invariant (always): outputs are supersets of the truth.
    EXPECT_TRUE(util::is_subset(p.expected_intersection, out.alice));
    EXPECT_TRUE(util::is_subset(p.expected_intersection, out.bob));
    // And subsets of own input.
    EXPECT_TRUE(util::is_subset(out.alice, p.s));
    EXPECT_TRUE(util::is_subset(out.bob, p.t));
    exact += (out.alice == p.expected_intersection &&
              out.bob == p.expected_intersection);
  }
  EXPECT_EQ(exact, trials);  // 1 - 1/poly(k) success at these sizes
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TreeProtocol,
    ::testing::Values(TreeCase{2, 0.5, 0}, TreeCase{8, 0.0, 0},
                      TreeCase{8, 1.0, 0}, TreeCase{64, 0.5, 2},
                      TreeCase{64, 0.5, 3}, TreeCase{256, 0.25, 0},
                      TreeCase{256, 1.0, 2}, TreeCase{1024, 0.0, 3},
                      TreeCase{1024, 0.9, 4}, TreeCase{1024, 0.5, 6},
                      TreeCase{4096, 0.5, 0}, TreeCase{4096, 0.75, 2}));

TEST(TreeProtocolEdge, EmptySets) {
  sim::SharedRandomness shared(1);
  sim::Channel ch;
  const core::IntersectionOutput out = core::verification_tree_intersection(
      ch, shared, 0, 1000, util::Set{}, util::Set{}, {});
  EXPECT_TRUE(out.alice.empty());
  EXPECT_TRUE(out.bob.empty());
}

TEST(TreeProtocolEdge, OneSideEmpty) {
  sim::SharedRandomness shared(2);
  sim::Channel ch;
  const core::IntersectionOutput out = core::verification_tree_intersection(
      ch, shared, 0, 1000, util::Set{1, 2, 3}, util::Set{}, {});
  EXPECT_TRUE(out.alice.empty());
  EXPECT_TRUE(out.bob.empty());
}

TEST(TreeProtocolEdge, IdenticalSets) {
  sim::SharedRandomness shared(3);
  sim::Channel ch;
  const util::Set s{10, 20, 30, 40, 50};
  const core::IntersectionOutput out =
      core::verification_tree_intersection(ch, shared, 0, 1000, s, s, {});
  EXPECT_EQ(out.alice, s);
  EXPECT_EQ(out.bob, s);
}

TEST(TreeProtocolEdge, SingletonSets) {
  sim::SharedRandomness shared(4);
  {
    sim::Channel ch;
    const auto out = core::verification_tree_intersection(
        ch, shared, 0, 100, util::Set{7}, util::Set{7}, {});
    EXPECT_EQ(out.alice, (util::Set{7}));
  }
  {
    sim::Channel ch;
    const auto out = core::verification_tree_intersection(
        ch, shared, 0, 100, util::Set{7}, util::Set{8}, {});
    EXPECT_TRUE(out.alice.empty());
    EXPECT_TRUE(out.bob.empty());
  }
}

TEST(TreeProtocolEdge, TinyUniverse) {
  sim::SharedRandomness shared(5);
  sim::Channel ch;
  const auto out = core::verification_tree_intersection(
      ch, shared, 0, 4, util::Set{0, 1, 2, 3}, util::Set{1, 3}, {});
  EXPECT_EQ(out.alice, (util::Set{1, 3}));
  EXPECT_EQ(out.bob, (util::Set{1, 3}));
}

TEST(TreeProtocolEdge, AsymmetricSizes) {
  util::Rng wrng(6);
  const util::Set big = util::random_set(wrng, 1u << 20, 500);
  const util::Set small{big[3], big[77], big[401]};
  sim::SharedRandomness shared(6);
  sim::Channel ch;
  const auto out = core::verification_tree_intersection(
      ch, shared, 0, 1u << 20, big, small, {});
  EXPECT_EQ(out.alice, small);
  EXPECT_EQ(out.bob, small);
}

TEST(TreeProtocol, RejectsInvalidInputs) {
  sim::SharedRandomness shared(7);
  sim::Channel ch;
  EXPECT_THROW(core::verification_tree_intersection(
                   ch, shared, 0, 10, util::Set{9, 2}, util::Set{}, {}),
               std::invalid_argument);
  EXPECT_THROW(core::verification_tree_intersection(
                   ch, shared, 0, 0, util::Set{}, util::Set{}, {}),
               std::invalid_argument);
  core::VerificationTreeParams bad;
  for (const int r : {-3, core::kMaxTreeStages + 1}) {
    bad.rounds_r = r;
    EXPECT_THROW(core::verification_tree_intersection(
                     ch, shared, 0, 100, util::Set{1}, util::Set{1}, bad),
                 std::invalid_argument);
  }
}

// ---------- round and cost accounting ----------

// Stage 0's phase row reads 2 rounds when all its nodes pass and 4 when
// some fail; every later stage's reads 1 or 3, as its hashes ride in the
// turn that closed the stage before: the verifier's Basic-Intersection
// sizes ride in its verdict turn, the hasher answers with its sizes and
// images in one turn, and the verifier's images close the stage. So a run
// takes at most 3r + 1 rounds. Standalone Basic-Intersection reads 3.
TEST(TreeProtocol, StageRoundsFollowTheirRepairs) {
  util::Rng wrng(8);
  std::size_t repaired = 0;
  std::size_t clean = 0;
  for (std::size_t k : {16u, 64u, 512u, 4096u}) {
    const util::SetPair p = util::random_set_pair(wrng, 1u << 24, k, k / 2);
    const int max_r = util::log_star(static_cast<double>(k)) + 1;
    for (int r = 2; r <= max_r; ++r) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " r=" << r);
      core::VerificationTreeParams params;
      params.rounds_r = r;
      sim::SharedRandomness shared(50 + k + static_cast<std::uint64_t>(r));
      sim::Channel ch;
      obs::Tracer tracer;
      ch.set_tracer(&tracer);
      core::VerificationTreeDiag diag;
      const auto out = core::verification_tree_intersection(
          ch, shared, 0, 1u << 24, p.s, p.t, params, &diag);
      EXPECT_EQ(out.alice, p.expected_intersection);
      const obs::PhaseNode* tree = tracer.root().child("verification_tree");
      ASSERT_NE(tree, nullptr);
      std::uint64_t rounds = 0;
      for (int i = 0; i < r; ++i) {
        const obs::PhaseNode* level =
            tree->child("level=" + std::to_string(i));
        ASSERT_NE(level, nullptr) << "level " << i;
        const bool repair =
            diag.stage_failures[static_cast<std::size_t>(i)] > 0;
        const std::uint64_t hashes = i == 0 ? 1 : 0;
        EXPECT_EQ(level->total_rounds(), hashes + (repair ? 3u : 1u))
            << "level " << i;
        rounds += level->total_rounds();
        (repair ? repaired : clean) += 1;
      }
      EXPECT_EQ(ch.cost().rounds, rounds);
      EXPECT_LE(ch.cost().rounds, static_cast<std::uint64_t>(3 * r + 1));

      sim::Channel bi_ch;
      obs::Tracer bi_tracer;
      bi_ch.set_tracer(&bi_tracer);
      core::basic_intersection(bi_ch, shared, 1, 1u << 24, p.s, p.t, 0.01);
      EXPECT_EQ(bi_tracer.root().total_rounds(), 3u);
      EXPECT_EQ(bi_ch.cost().rounds, 3u);
    }
  }
  // Both kinds of stage occur.
  EXPECT_GT(repaired, 0u);
  EXPECT_GT(clean, 0u);
}

// Who hashes a stage and who opens its repair moves rounds only: per
// seed, the bits, messages, per-stage failures and outputs of a run, and
// the bits, messages and attempts of a certified session, are the values
// the turn order in which Alice hashed every stage produced.
TEST(TreeProtocol, TurnOrderKeepsBitsMessagesFailuresAndOutputs) {
  struct Pin {
    std::size_t k;
    int r;  // 0: log* k
    std::uint64_t seed;
    std::uint64_t bits;
    std::uint64_t messages;
    std::vector<std::uint64_t> stage_failures;
    std::size_t output_size;
    std::uint64_t output_fold;
    std::uint64_t session_bits;
    std::uint64_t session_messages;
    std::uint64_t session_attempts;
  };
  const Pin pins[] = {
      {100, 2, 1, 4385u, 12u, {63u, 1u}, 50u, 0x2f1b83ef2946662aull, 4398u,
       10u, 1u},
      {512, 3, 2, 18601u, 14u, {318u, 2u, 0u}, 256u, 0x00dfb488b459541eull,
       19399u, 16u, 1u},
      {512, 4, 3, 17486u, 16u, {315u, 23u, 0u, 0u}, 256u,
       0x214c431b2b3136f3ull, 19570u, 22u, 1u},
      {4096, 0, 4, 139433u, 16u, {2394u, 199u, 0u, 0u}, 2048u,
       0x86d7b5d55cdc1067ull, 148252u, 22u, 1u},
      {1000, 5, 5, 41587u, 22u, {595u, 36u, 6u, 0u, 0u}, 500u,
       0xb025e9ca6ee15d4bull, 43475u, 24u, 1u},
      {64, 3, 6, 2103u, 10u, {43u, 0u, 0u}, 32u, 0x994aff4eb78cc3fbull, 2172u,
       16u, 1u},
  };
  const std::uint64_t universe = std::uint64_t{1} << 32;
  for (const Pin& pin : pins) {
    SCOPED_TRACE(testing::Message() << "k=" << pin.k << " r=" << pin.r);
    util::Rng wrng(pin.seed);
    const util::SetPair p =
        util::random_set_pair(wrng, universe, pin.k, pin.k / 2);
    sim::SharedRandomness shared(pin.seed);
    core::VerificationTreeParams params;
    params.rounds_r = pin.r;
    sim::Channel ch;
    core::VerificationTreeDiag diag;
    const auto out = core::verification_tree_intersection(
        ch, shared, pin.seed, universe, p.s, p.t, params, &diag);
    EXPECT_EQ(ch.cost().bits_total, pin.bits);
    EXPECT_EQ(ch.cost().messages, pin.messages);
    EXPECT_EQ(diag.stage_failures, pin.stage_failures);
    EXPECT_EQ(out.alice.size(), pin.output_size);
    std::uint64_t fold = 0xcbf29ce484222325ull;  // FNV-1a over the words
    for (const std::uint64_t x : out.alice) {
      for (int i = 0; i < 8; ++i) {
        fold ^= (x >> (8 * i)) & 0xff;
        fold *= 0x100000001b3ull;
      }
    }
    EXPECT_EQ(fold, pin.output_fold);
    EXPECT_EQ(out.bob, out.alice);

    const auto vr = multiparty::verified_two_party_intersection(
        shared, pin.seed, universe, p.s, p.t, params, pin.k);
    EXPECT_EQ(vr.cost.bits_total, pin.session_bits);
    EXPECT_EQ(vr.cost.messages, pin.session_messages);
    EXPECT_EQ(vr.repetitions, pin.session_attempts);
    EXPECT_EQ(vr.intersection, p.expected_intersection);
  }
}

TEST(TreeProtocol, RoundOneDelegatesToHashExchange) {
  util::Rng wrng(9);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 24, 256, 128);
  core::VerificationTreeParams params;
  params.rounds_r = 1;
  sim::SharedRandomness shared(9);
  sim::Channel ch;
  const auto out = core::verification_tree_intersection(ch, shared, 0,
                                                        1u << 24, p.s, p.t,
                                                        params);
  EXPECT_EQ(ch.cost().rounds, 2u);  // one message each way
  EXPECT_EQ(out.alice, p.expected_intersection);
}

TEST(TreeProtocol, DiagnosticsAreConsistent) {
  util::Rng wrng(10);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 24, 1024, 512);
  core::VerificationTreeParams params;
  params.rounds_r = 3;
  core::VerificationTreeDiag diag;
  sim::SharedRandomness shared(10);
  sim::Channel ch;
  core::verification_tree_intersection(ch, shared, 0, 1u << 24, p.s, p.t,
                                       params, &diag);
  ASSERT_EQ(diag.stage_failures.size(), 3u);
  ASSERT_EQ(diag.stage_eq_bits.size(), 3u);
  ASSERT_EQ(diag.stage_bi_bits.size(), 3u);
  EXPECT_FALSE(diag.fallback_used);
  // Re-run totals match the per-leaf counters.
  std::uint64_t reruns = 0;
  for (std::uint32_t c : diag.leaf_reruns) reruns += c;
  EXPECT_EQ(reruns, diag.total_bi_runs);
  // Stage 0 compares raw buckets, so with 50% overlap most leaves fail.
  EXPECT_GT(diag.stage_failures[0], 200u);
  // Communication recorded in diag accounts for most of the channel bits.
  std::uint64_t diag_bits = 0;
  for (std::uint64_t b : diag.stage_eq_bits) diag_bits += b;
  for (std::uint64_t b : diag.stage_bi_bits) diag_bits += b;
  EXPECT_EQ(diag_bits, ch.cost().bits_total);
}

TEST(TreeProtocol, ExpectedConstantRerunsPerLeaf) {
  // Lemma 3.10: E[n_u] = O(1). Measure the average rerun count per leaf.
  util::Rng wrng(11);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 26, 4096, 2048);
  core::VerificationTreeDiag diag;
  sim::SharedRandomness shared(11);
  sim::Channel ch;
  core::verification_tree_intersection(ch, shared, 0, 1u << 26, p.s, p.t, {},
                                       &diag);
  const double avg = static_cast<double>(diag.total_bi_runs) / 4096.0;
  EXPECT_LT(avg, 2.0);
}

// ---------- hostile parameters / failure injection ----------

TEST(TreeProtocolStress, SupersetInvariantSurvivesSabotagedEqualityTests) {
  // Scale the equality hashes down to 1 bit: tests pass falsely all the
  // time, re-runs fire constantly — but the outputs must STILL be
  // supersets of the truth and subsets of the inputs (those hold with
  // probability 1), and the protocol must terminate.
  core::VerificationTreeParams hostile;
  hostile.rounds_r = 3;
  hostile.eq_bits_scale = 1e-9;  // floor: 1 bit per equality test
  util::Rng wrng(12);
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    const util::SetPair p = util::random_set_pair(wrng, 1u << 22, 128, 64);
    sim::SharedRandomness shared(trial);
    sim::Channel ch;
    const auto out = core::verification_tree_intersection(
        ch, shared, trial, 1u << 22, p.s, p.t, hostile);
    EXPECT_TRUE(util::is_subset(p.expected_intersection, out.alice));
    EXPECT_TRUE(util::is_subset(p.expected_intersection, out.bob));
    EXPECT_TRUE(util::is_subset(out.alice, p.s));
    EXPECT_TRUE(util::is_subset(out.bob, p.t));
  }
}

TEST(TreeProtocolStress, SabotagedBasicIntersectionStillOneSided) {
  core::VerificationTreeParams hostile;
  hostile.rounds_r = 3;
  hostile.bi_range_scale = 1e-6;  // clamps hash failure target at 25%
  util::Rng wrng(13);
  int inexact = 0;
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    const util::SetPair p = util::random_set_pair(wrng, 1u << 22, 128, 64);
    sim::SharedRandomness shared(100 + trial);
    sim::Channel ch;
    const auto out = core::verification_tree_intersection(
        ch, shared, trial, 1u << 22, p.s, p.t, hostile);
    EXPECT_TRUE(util::is_subset(p.expected_intersection, out.alice));
    EXPECT_TRUE(util::is_subset(out.alice, p.s));
    inexact += (out.alice != p.expected_intersection);
  }
  // With 25%-failure Basic-Intersection the later verification stages
  // still repair most runs; we only require the invariants above, but
  // sanity-check the repair machinery is doing something.
  EXPECT_LT(inexact, 20);
}

TEST(TreeProtocol, WorstCaseCutoffFallsBackToExactExchange) {
  core::VerificationTreeParams params;
  params.rounds_r = 3;
  params.worst_case_cutoff_factor = 0.0001;  // absurdly tight budget
  util::Rng wrng(14);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 22, 256, 128);
  core::VerificationTreeDiag diag;
  sim::SharedRandomness shared(14);
  sim::Channel ch;
  const auto out = core::verification_tree_intersection(
      ch, shared, 0, 1u << 22, p.s, p.t, params, &diag);
  EXPECT_TRUE(diag.fallback_used);
  EXPECT_EQ(out.alice, p.expected_intersection);  // fallback is exact
  EXPECT_EQ(out.bob, p.expected_intersection);
}

// A lying verdict frame desynchronises which leaves the two parties would
// repair; the run fails as soon as the stage's hasher has read it, so
// nothing after the equality exchange is sent. At stage 0 Bob's verdicts
// lie to Alice; at stage 1, where Bob hashes, Alice's lie to Bob.
TEST(TreeProtocol, TamperedVerdictsFailLoudlyBeforeRepair) {
  util::Rng wrng(15);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 22, 64, 32);
  core::VerificationTreeParams params;
  params.rounds_r = 2;
  sim::AdversarySpec spec;
  spec.party = sim::PartyId::kBob;
  spec.attack = sim::AttackClass::kRandomGarbage;
  spec.frame_bits = 256;
  sim::Adversary adversary(spec);
  sim::SharedRandomness shared(15);
  sim::Channel ch;
  ch.set_adversary(&adversary);
  EXPECT_THROW(core::verification_tree_intersection(ch, shared, 0, 1u << 22,
                                                    p.s, p.t, params),
               std::logic_error);
  EXPECT_EQ(ch.cost().messages, 2u);  // hashes and the forged verdicts

  // Stage 1: the first step ends at stage 0's boundary, Bob's stage-1
  // hashes; only then does Alice start to lie.
  sim::AdversarySpec alice_lies = spec;
  alice_lies.party = sim::PartyId::kAlice;
  sim::Adversary alice_adversary(alice_lies);
  sim::Channel ch1;
  core::VerificationTreeRun run(ch1, shared, 0, 1u << 22, p.s, p.t, params);
  ASSERT_FALSE(run.step());
  const std::uint64_t stage0_messages = ch1.cost().messages;
  ch1.set_adversary(&alice_adversary);
  EXPECT_THROW(
      {
        while (!run.step()) {
        }
      },
      std::logic_error);
  EXPECT_EQ(ch1.cost().messages, stage0_messages + 1);  // forged verdicts
  EXPECT_EQ(alice_adversary.stats().frames_seen, 1u);
}

TEST(TreeProtocol, ExplicitBucketCountsStayExact) {
  // The bucket count is a free parameter (the paper uses k); off-default
  // values trade constants but never correctness.
  util::Rng wrng(21);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 24, 512, 256);
  for (std::size_t buckets : {64u, 128u, 2048u, 8192u}) {
    core::VerificationTreeParams params;
    params.rounds_r = 3;
    params.bucket_count = buckets;
    sim::SharedRandomness shared(buckets);
    sim::Channel ch;
    const auto out = core::verification_tree_intersection(
        ch, shared, 0, 1u << 24, p.s, p.t, params);
    EXPECT_EQ(out.alice, p.expected_intersection) << buckets;
    EXPECT_EQ(out.bob, p.expected_intersection) << buckets;
  }
}

TEST(TreeProtocol, DeterministicGivenSeeds) {
  util::Rng wrng(15);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 22, 256, 128);
  sim::SharedRandomness shared(15);
  sim::Channel ch1(/*record_transcript=*/true);
  sim::Channel ch2(/*record_transcript=*/true);
  core::verification_tree_intersection(ch1, shared, 0, 1u << 22, p.s, p.t, {});
  core::verification_tree_intersection(ch2, shared, 0, 1u << 22, p.s, p.t, {});
  EXPECT_EQ(ch1.transcript()->digest(), ch2.transcript()->digest());
  EXPECT_EQ(ch1.cost().bits_total, ch2.cost().bits_total);
}

TEST(TreeProtocol, FreshNoncesChangeTranscript) {
  util::Rng wrng(16);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 22, 256, 128);
  sim::SharedRandomness shared(16);
  sim::Channel ch1(/*record_transcript=*/true);
  sim::Channel ch2(/*record_transcript=*/true);
  core::verification_tree_intersection(ch1, shared, 1, 1u << 22, p.s, p.t, {});
  core::verification_tree_intersection(ch2, shared, 2, 1u << 22, p.s, p.t, {});
  EXPECT_NE(ch1.transcript()->digest(), ch2.transcript()->digest());
}

// ---------- polymorphic wrapper ----------

TEST(TreeProtocolWrapper, RunsAndNames) {
  core::VerificationTreeParams params;
  params.rounds_r = 2;
  const core::VerificationTreeProtocol proto(params);
  EXPECT_EQ(proto.name(), "verification-tree[r=2]");
  EXPECT_EQ(core::VerificationTreeProtocol{}.name(),
            "verification-tree[r=log*k]");
  util::Rng wrng(17);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 20, 64, 32);
  const core::RunResult r = proto.run(17, 1u << 20, p.s, p.t);
  EXPECT_EQ(r.output.alice, p.expected_intersection);
  EXPECT_GT(r.cost.bits_total, 0u);
}

}  // namespace
}  // namespace setint

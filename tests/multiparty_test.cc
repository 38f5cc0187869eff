// Tests for the multi-party protocols (Corollaries 4.1 and 4.2):
// correctness across m sweeps (including recursion over coordinator
// levels), the verified two-party wrapper, and per-player cost shapes.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/tree_parties.h"
#include "multiparty/coordinator.h"
#include "multiparty/tournament.h"
#include "obs/tracer.h"
#include "sim/channel.h"
#include "sim/network.h"
#include "sim/randomness.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

// ---------- verified two-party wrapper ----------

TEST(VerifiedTwoParty, ExactAcrossManyRuns) {
  util::Rng wrng(1);
  sim::SharedRandomness shared(1);
  for (std::uint64_t trial = 0; trial < 30; ++trial) {
    const util::SetPair p = util::random_set_pair(wrng, 1u << 24, 64, 32);
    const auto vr = multiparty::verified_two_party_intersection(
        shared, trial, 1u << 24, p.s, p.t, {}, 64);
    EXPECT_EQ(vr.intersection, p.expected_intersection) << trial;
    EXPECT_GE(vr.repetitions, 1u);
    EXPECT_LE(vr.repetitions, 3u);  // expected O(1)
  }
}

TEST(VerifiedTwoParty, SurvivesSabotagedInnerProtocol) {
  // Cripple the inner equality tests; the certificate + re-runs (and in
  // the worst case the deterministic backstop) must still deliver the
  // exact intersection.
  core::VerificationTreeParams hostile;
  hostile.rounds_r = 2;
  hostile.eq_bits_scale = 1e-9;
  hostile.bi_range_scale = 1e-6;
  util::Rng wrng(2);
  sim::SharedRandomness shared(2);
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    const util::SetPair p = util::random_set_pair(wrng, 1u << 22, 32, 16);
    const auto vr = multiparty::verified_two_party_intersection(
        shared, trial, 1u << 22, p.s, p.t, hostile, 32);
    EXPECT_EQ(vr.intersection, p.expected_intersection) << trial;
  }
}

// The 2k-bit certificate is opened by the party that sent the tree's last
// message, the last stage's verifier: Bob at r = 3, Alice at r = 4. Its
// hash rides that party's turn, so a clean first attempt's certificate
// adds exactly one round, the verdict's.
TEST(VerifiedTwoParty, CertificateAddsOneRoundToACleanAttempt) {
  util::Rng wrng(3);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 24, 256, 128);
  sim::SharedRandomness shared(3);
  for (const int r : {3, 4}) {
    SCOPED_TRACE(testing::Message() << "r=" << r);
    core::VerificationTreeParams params;
    params.rounds_r = r;
    params.bucket_count = 256;

    sim::Channel tree_ch(/*record_transcript=*/true);
    core::VerificationTreeRun tree(tree_ch, shared, 0, 1u << 24, p.s, p.t,
                                   params);
    while (!tree.step()) {
    }
    const sim::PartyId last = r % 2 == 1 ? sim::PartyId::kBob
                                         : sim::PartyId::kAlice;
    EXPECT_EQ(tree_ch.transcript()->entries().back().from, last);
    EXPECT_EQ(tree.last_sender(), last);

    obs::Tracer tracer;
    multiparty::SessionHooks hooks;
    hooks.tracer = &tracer;
    const auto vr = multiparty::verified_two_party_intersection(
        shared, 0, 1u << 24, p.s, p.t, params, 256, {}, hooks);
    ASSERT_EQ(vr.repetitions, 1u);
    EXPECT_EQ(vr.intersection, p.expected_intersection);
    const obs::PhaseNode* session =
        tracer.root().child("verified_intersection");
    ASSERT_NE(session, nullptr);
    const obs::PhaseNode* vt = session->child("verification_tree");
    const obs::PhaseNode* certificate = session->child("certificate");
    ASSERT_NE(vt, nullptr);
    ASSERT_NE(certificate, nullptr);
    EXPECT_EQ(certificate->total_rounds(), 1u);
    EXPECT_EQ(vr.cost.rounds, vt->total_rounds() + 1);
  }
}

// ---------- coordinator protocol (Corollary 4.1) ----------

struct MpCase {
  std::size_t players;
  std::size_t k;
  std::size_t shared;
};

class Coordinator : public ::testing::TestWithParam<MpCase> {};

TEST_P(Coordinator, ComputesExactMWayIntersection) {
  const MpCase c = GetParam();
  util::Rng wrng(c.players * 131 + c.k);
  const util::MultiSetInstance inst = util::random_multi_sets(
      wrng, std::uint64_t{1} << 26, c.players, c.k, c.shared);
  sim::Network net(c.players);
  sim::SharedRandomness shared(c.players + 7);
  const auto result =
      multiparty::coordinator_intersection(net, shared, std::uint64_t{1} << 26,
                                           inst.sets);
  EXPECT_EQ(result.intersection, inst.expected_intersection);
  if (c.players > 1) {
    EXPECT_GT(net.total_bits(), 0u);
    EXPECT_GT(net.rounds(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Coordinator,
    ::testing::Values(MpCase{1, 16, 4}, MpCase{2, 16, 4}, MpCase{3, 16, 0},
                      MpCase{5, 16, 16}, MpCase{8, 8, 4},
                      // m > 2k forces recursion over coordinator levels
                      MpCase{40, 8, 4}, MpCase{100, 4, 2},
                      MpCase{64, 32, 16}));

TEST(Coordinator, RecursionLevelsMatchGroupMath) {
  // 100 players, k = 4 -> groups of 8: 100 -> 13 -> 2 -> 1: three levels.
  util::Rng wrng(3);
  const util::MultiSetInstance inst =
      util::random_multi_sets(wrng, 1u << 20, 100, 4, 2);
  sim::Network net(100);
  sim::SharedRandomness shared(3);
  const auto result =
      multiparty::coordinator_intersection(net, shared, 1u << 20, inst.sets);
  EXPECT_EQ(result.levels, 3u);
  EXPECT_EQ(result.intersection, inst.expected_intersection);
}

TEST(Coordinator, AveragePerPlayerBitsStaysFlatAsMGrows) {
  // Corollary 4.1's headline: average communication per player is
  // O(k log^(r) k), independent of m.
  util::Rng wrng(4);
  const std::size_t k = 16;
  double avg_small = 0;
  double avg_large = 0;
  {
    const auto inst = util::random_multi_sets(wrng, 1u << 24, 8, k, 8);
    sim::Network net(8);
    sim::SharedRandomness shared(4);
    multiparty::coordinator_intersection(net, shared, 1u << 24, inst.sets);
    avg_small = net.average_player_bits();
  }
  {
    const auto inst = util::random_multi_sets(wrng, 1u << 24, 256, k, 8);
    sim::Network net(256);
    sim::SharedRandomness shared(5);
    multiparty::coordinator_intersection(net, shared, 1u << 24, inst.sets);
    avg_large = net.average_player_bits();
  }
  EXPECT_LT(avg_large, avg_small * 3.0);
}

TEST(Coordinator, CoordinatorCarriesTheWorstCaseLoad) {
  // In a single group the coordinator touches ~2k conversations while a
  // member touches one: max-player bits should far exceed the average.
  util::Rng wrng(5);
  const auto inst = util::random_multi_sets(wrng, 1u << 24, 32, 16, 8);
  sim::Network net(32);
  sim::SharedRandomness shared(6);
  multiparty::coordinator_intersection(net, shared, 1u << 24, inst.sets);
  EXPECT_GT(static_cast<double>(net.max_player_bits()),
            3.0 * net.average_player_bits());
}

TEST(Coordinator, RejectsMismatchedPlayerCount) {
  sim::Network net(3);
  sim::SharedRandomness shared(7);
  std::vector<util::Set> two_sets{util::Set{1}, util::Set{2}};
  EXPECT_THROW(
      multiparty::coordinator_intersection(net, shared, 100, two_sets),
      std::invalid_argument);
}

TEST(Coordinator, DisjointPlayersYieldEmptyIntersection) {
  // Sets with pairwise-empty overlap.
  std::vector<util::Set> sets{util::Set{1, 2}, util::Set{3, 4},
                              util::Set{5, 6}};
  sim::Network net(3);
  sim::SharedRandomness shared(8);
  const auto result =
      multiparty::coordinator_intersection(net, shared, 100, sets);
  EXPECT_TRUE(result.intersection.empty());
}

TEST(Coordinator, AllPlayersIdentical) {
  const util::Set s{2, 4, 6, 8};
  std::vector<util::Set> sets(6, s);
  sim::Network net(6);
  sim::SharedRandomness shared(9);
  const auto result =
      multiparty::coordinator_intersection(net, shared, 100, sets);
  EXPECT_EQ(result.intersection, s);
}

TEST(Coordinator, BroadcastDeliversResultToEveryPlayer) {
  util::Rng wrng(14);
  const auto inst = util::random_multi_sets(wrng, 1u << 22, 12, 16, 8);
  multiparty::MultipartyParams params;
  params.broadcast_result = true;
  sim::Network net(12);
  sim::SharedRandomness shared(14);
  const auto result = multiparty::coordinator_intersection(
      net, shared, 1u << 22, inst.sets, params);
  EXPECT_EQ(result.intersection, inst.expected_intersection);
  EXPECT_GT(result.broadcast_bits, 0u);
  // Every player touched at least the broadcast message.
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_GT(net.player(i).bits_touched(), 0u) << i;
  }
  // Without broadcast, the same run bills fewer total bits.
  sim::Network plain_net(12);
  const auto plain = multiparty::coordinator_intersection(
      plain_net, shared, 1u << 22, inst.sets, {});
  EXPECT_EQ(plain.broadcast_bits, 0u);
  EXPECT_EQ(net.total_bits(), plain_net.total_bits() + result.broadcast_bits);
}

// ---------- tournament protocol (Corollary 4.2) ----------

class Tournament : public ::testing::TestWithParam<MpCase> {};

TEST_P(Tournament, ComputesExactMWayIntersection) {
  const MpCase c = GetParam();
  util::Rng wrng(c.players * 37 + c.k);
  const util::MultiSetInstance inst = util::random_multi_sets(
      wrng, std::uint64_t{1} << 26, c.players, c.k, c.shared);
  sim::Network net(c.players);
  sim::SharedRandomness shared(c.players + 11);
  const auto result = multiparty::tournament_intersection(
      net, shared, std::uint64_t{1} << 26, inst.sets);
  EXPECT_EQ(result.intersection, inst.expected_intersection);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Tournament,
    ::testing::Values(MpCase{1, 16, 4}, MpCase{2, 16, 4}, MpCase{3, 16, 0},
                      MpCase{7, 16, 16}, MpCase{8, 8, 4}, MpCase{40, 8, 4},
                      MpCase{100, 4, 2}, MpCase{64, 32, 16}));

TEST(Tournament, SpreadsLoadMoreEvenlyThanCoordinator) {
  // Corollary 4.2's point: the worst-case player cost drops relative to
  // the coordinator protocol (which concentrates 2k conversations on one
  // player).
  util::Rng wrng(10);
  const auto inst = util::random_multi_sets(wrng, 1u << 24, 64, 32, 16);
  sim::SharedRandomness shared(12);
  sim::Network coord_net(64);
  multiparty::coordinator_intersection(coord_net, shared, 1u << 24,
                                       inst.sets);
  sim::Network tour_net(64);
  multiparty::tournament_intersection(tour_net, shared, 1u << 24, inst.sets);
  EXPECT_LT(tour_net.max_player_bits(), coord_net.max_player_bits());
}

TEST(Tournament, UsesMoreRoundsThanCoordinator) {
  // The price of the balanced load: O(r * depth) rounds per level.
  util::Rng wrng(11);
  const auto inst = util::random_multi_sets(wrng, 1u << 24, 32, 16, 8);
  sim::SharedRandomness shared(13);
  sim::Network coord_net(32);
  multiparty::coordinator_intersection(coord_net, shared, 1u << 24,
                                       inst.sets);
  sim::Network tour_net(32);
  multiparty::tournament_intersection(tour_net, shared, 1u << 24, inst.sets);
  EXPECT_GT(tour_net.rounds(), coord_net.rounds());
}

TEST(MultipartyFuzz, RandomTopologiesBothProtocols) {
  // ~40 random (m, k, overlap) topologies through both multi-party
  // protocols, with and without broadcast, all checked against local
  // ground truth.
  util::Rng meta(0xF00);
  for (int instance = 0; instance < 40; ++instance) {
    const std::size_t m = 1 + meta.below(24);
    const std::size_t k = 2 + meta.below(24);
    const std::size_t shared_count = meta.below(k + 1);
    util::Rng wrng(meta.next());
    const auto inst =
        util::random_multi_sets(wrng, 1u << 22, m, k, shared_count);
    sim::SharedRandomness shared(meta.next());

    multiparty::MultipartyParams params;
    params.broadcast_result = (instance % 2 == 0);
    sim::Network coord_net(m);
    const auto coord = multiparty::coordinator_intersection(
        coord_net, shared, 1u << 22, inst.sets, params);
    ASSERT_EQ(coord.intersection, inst.expected_intersection)
        << "coordinator m=" << m << " k=" << k;

    sim::Network tour_net(m);
    const auto tour = multiparty::tournament_intersection(
        tour_net, shared, 1u << 22, inst.sets);
    ASSERT_EQ(tour.intersection, inst.expected_intersection)
        << "tournament m=" << m << " k=" << k;
  }
}

TEST(Tournament, OddPlayerCountsCarryByes) {
  util::Rng wrng(12);
  for (std::size_t players : {3u, 5u, 9u, 17u}) {
    const auto inst =
        util::random_multi_sets(wrng, 1u << 20, players, 8, 4);
    sim::Network net(players);
    sim::SharedRandomness shared(players);
    const auto result =
        multiparty::tournament_intersection(net, shared, 1u << 20, inst.sets);
    EXPECT_EQ(result.intersection, inst.expected_intersection) << players;
  }
}

}  // namespace
}  // namespace setint

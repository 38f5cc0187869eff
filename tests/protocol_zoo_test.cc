// Cross-protocol agreement tests: every IntersectionProtocol in the zoo
// must produce the same (exact) answer on the same instance, and their
// costs must order the way the theory says.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/bucket_eq.h"
#include "core/deterministic_exchange.h"
#include "core/one_round_hash.h"
#include "core/private_coin.h"
#include "core/toy_protocol.h"
#include "core/verification_tree.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

std::vector<std::unique_ptr<core::IntersectionProtocol>> make_zoo() {
  std::vector<std::unique_ptr<core::IntersectionProtocol>> zoo;
  zoo.push_back(std::make_unique<core::DeterministicExchangeProtocol>());
  zoo.push_back(std::make_unique<core::OneRoundHashProtocol>());
  zoo.push_back(std::make_unique<core::ToyBucketProtocol>());
  zoo.push_back(std::make_unique<core::BucketEqProtocol>());
  zoo.push_back(std::make_unique<core::VerificationTreeProtocol>());
  core::VerificationTreeParams r2;
  r2.rounds_r = 2;
  zoo.push_back(std::make_unique<core::VerificationTreeProtocol>(r2));
  core::VerificationTreeParams r3;
  r3.rounds_r = 3;
  zoo.push_back(std::make_unique<core::VerificationTreeProtocol>(r3));
  zoo.push_back(std::make_unique<core::PrivateCoinProtocol>());
  return zoo;
}

struct ZooCase {
  std::size_t k;
  std::size_t shared;
};

class Zoo : public ::testing::TestWithParam<ZooCase> {};

TEST_P(Zoo, AllProtocolsAgreeOnTheExactIntersection) {
  const ZooCase c = GetParam();
  util::Rng wrng(c.k * 41 + c.shared);
  const util::SetPair p =
      util::random_set_pair(wrng, std::uint64_t{1} << 28, c.k, c.shared);
  for (const auto& proto : make_zoo()) {
    const core::RunResult r =
        proto->run(/*seed=*/c.k + 1, std::uint64_t{1} << 28, p.s, p.t);
    EXPECT_EQ(r.output.alice, p.expected_intersection) << proto->name();
    EXPECT_EQ(r.output.bob, p.expected_intersection) << proto->name();
    EXPECT_GT(r.cost.rounds, 0u) << proto->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Zoo,
                         ::testing::Values(ZooCase{4, 2}, ZooCase{64, 0},
                                           ZooCase{64, 64}, ZooCase{256, 128},
                                           ZooCase{1024, 700}));

TEST(ZooCosts, TreeBeatsDeterministicExchangeOnHugeUniverses) {
  // The headline separation: O(k log^(r) k) vs Theta(k log(n/k)).
  util::Rng wrng(1);
  const std::size_t k = 2048;
  const util::SetPair p =
      util::random_set_pair(wrng, std::uint64_t{1} << 60, k, k / 2);
  const core::RunResult tree =
      core::VerificationTreeProtocol{}.run(2, std::uint64_t{1} << 60, p.s,
                                           p.t);
  const core::RunResult naive = core::DeterministicExchangeProtocol{}.run(
      2, std::uint64_t{1} << 60, p.s, p.t);
  EXPECT_LT(tree.cost.bits_total, naive.cost.bits_total);
}

TEST(ZooCosts, TreeBeatsOneRoundHashingAtLargeK) {
  // O(k) vs Theta(k log k): at k = 2^14 the one-round protocol pays
  // ~3 log2 k = 42 bits/element.
  util::Rng wrng(2);
  const std::size_t k = 16384;
  const util::SetPair p =
      util::random_set_pair(wrng, std::uint64_t{1} << 30, k, k / 2);
  const core::RunResult tree =
      core::VerificationTreeProtocol{}.run(3, std::uint64_t{1} << 30, p.s,
                                           p.t);
  const core::RunResult one_round = core::OneRoundHashProtocol{}.run(
      3, std::uint64_t{1} << 30, p.s, p.t);
  EXPECT_LT(tree.cost.bits_total, one_round.cost.bits_total);
}

TEST(ZooCosts, MoreStagesFewerBits) {
  // The r-tradeoff: k log k (r=1) > k log log k (r=2) > ... at fixed k.
  util::Rng wrng(3);
  const std::size_t k = 8192;
  const util::SetPair p =
      util::random_set_pair(wrng, std::uint64_t{1} << 30, k, k / 2);
  std::uint64_t prev = ~std::uint64_t{0};
  for (int r = 1; r <= 3; ++r) {
    core::VerificationTreeParams params;
    params.rounds_r = r;
    const core::RunResult res = core::VerificationTreeProtocol{params}.run(
        4, std::uint64_t{1} << 30, p.s, p.t);
    EXPECT_LT(res.cost.bits_total, prev) << "r=" << r;
    prev = res.cost.bits_total;
  }
}

TEST(ZooCosts, RoundsGrowWithR) {
  util::Rng wrng(4);
  const std::size_t k = 4096;
  const util::SetPair p =
      util::random_set_pair(wrng, std::uint64_t{1} << 30, k, k / 2);
  for (int r = 1; r <= 5; ++r) {
    core::VerificationTreeParams params;
    params.rounds_r = r;
    const core::RunResult res = core::VerificationTreeProtocol{params}.run(
        5, std::uint64_t{1} << 30, p.s, p.t);
    EXPECT_LE(res.cost.rounds, static_cast<std::uint64_t>(3 * r + 1)) << r;
  }
}

}  // namespace
}  // namespace setint

// Transcript-digest pins across the whole protocol zoo.
//
// tests/golden_test.cc pins three flagship runs at one reference instance;
// this suite extends the bit-identity net to EVERY core two-party protocol
// (one digest per protocol/config) and both multiparty variants. It exists
// so the hot-path compute engine (docs/PERFORMANCE.md) — batched hashing,
// flat CSR buckets, arena scratch — can keep evolving under a guarantee
// that it changes how bits are computed, never which bits are sent.
//
// The multiparty coordinator/tournament run their two-party sub-protocols
// on internal channels without transcript recording, so their pins are the
// network-level cost surface (total bits, rounds, max per-player bits)
// plus result exactness instead of a payload digest.
//
// If a pin moves because of a DELIBERATE protocol change, re-derive the
// constants (the failure message prints the new values) and say so in the
// change description.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/basic_intersection.h"
#include "core/checkpoint.h"
#include "core/bucket_eq.h"
#include "core/deterministic_exchange.h"
#include "core/one_round_hash.h"
#include "core/private_coin.h"
#include "core/toy_protocol.h"
#include "core/verification_tree.h"
#include "eq/equality.h"
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

constexpr std::uint64_t kUniverse = std::uint64_t{1} << 22;

util::SetPair reference_pair() {
  util::Rng wrng(424242);
  return util::random_set_pair(wrng, kUniverse, 256, 128);
}

struct RunPin {
  std::uint64_t bits;
  std::uint64_t rounds;
  std::uint64_t digest;
};

void expect_pin(const sim::Channel& ch, const RunPin& pin) {
  EXPECT_EQ(ch.cost().bits_total, pin.bits);
  EXPECT_EQ(ch.cost().rounds, pin.rounds);
  EXPECT_EQ(ch.transcript()->digest(), pin.digest);
}

TEST(TranscriptDigest, DeterministicExchange) {
  const util::SetPair p = reference_pair();
  sim::Channel ch(/*record_transcript=*/true);
  const auto out = core::deterministic_exchange(ch, kUniverse, p.s, p.t);
  EXPECT_EQ(out.alice, p.expected_intersection);
  expect_pin(ch, {6137u, 2u, 0xb642797fce970f57ull});
}

TEST(TranscriptDigest, OneRoundHash) {
  const util::SetPair p = reference_pair();
  sim::Channel ch(/*record_transcript=*/true);
  sim::SharedRandomness sh(31337);
  const auto out = core::one_round_hash(ch, sh, 7, kUniverse, p.s, p.t);
  EXPECT_EQ(out.alice, p.expected_intersection);
  expect_pin(ch, {12322u, 2u, 0x46b573f738b3d517ull});
}

TEST(TranscriptDigest, BucketEq) {
  const util::SetPair p = reference_pair();
  sim::Channel ch(/*record_transcript=*/true);
  sim::SharedRandomness sh(31337);
  const auto out = core::bucket_eq_intersection(ch, sh, 7, kUniverse, p.s, p.t);
  EXPECT_EQ(out.alice, p.expected_intersection);
  expect_pin(ch, {4456u, 50u, 0x164304b897a7afb2ull});
}

TEST(TranscriptDigest, BasicIntersection) {
  const util::SetPair p = reference_pair();
  sim::Channel ch(/*record_transcript=*/true);
  sim::SharedRandomness sh(31337);
  const auto cand =
      core::basic_intersection(ch, sh, 7, kUniverse, p.s, p.t, 0.01);
  // Lemma 3.3: candidates always contain the true intersection.
  EXPECT_TRUE(util::is_subset(p.expected_intersection, cand.s_candidate));
  expect_pin(ch, {12356u, 4u, 0x39744265dda51437ull});
}

TEST(TranscriptDigest, ToyProtocol) {
  const util::SetPair p = reference_pair();
  sim::Channel ch(/*record_transcript=*/true);
  sim::SharedRandomness sh(31337);
  const auto out = core::toy_bucket_intersection(ch, sh, 7, kUniverse, p.s, p.t);
  EXPECT_EQ(out.alice, p.expected_intersection);
  expect_pin(ch, {6326u, 12u, 0xf0591adbb82d0dd1ull});
}

// One pin per tree depth: r=1 (the one-round base case), r=2 (one real
// verification stage), r=0 (auto: log* k).
TEST(TranscriptDigest, VerificationTreeDepths) {
  const RunPin pins[] = {
      {12322u, 2u, 0x46b573f738b3d517ull},   // r=1
      {10541u, 8u, 0xc571e58501bd451full},   // r=2
      {8773u, 16u, 0x75047fe49cc263a9ull},   // r=0 (auto)
  };
  const int depths[] = {1, 2, 0};
  const util::SetPair p = reference_pair();
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE(testing::Message() << "rounds_r=" << depths[i]);
    sim::Channel ch(/*record_transcript=*/true);
    sim::SharedRandomness sh(31337);
    core::VerificationTreeParams params;
    params.rounds_r = depths[i];
    const auto out = core::verification_tree_intersection(ch, sh, 7, kUniverse,
                                                          p.s, p.t, params);
    EXPECT_EQ(out.alice, p.expected_intersection);
    expect_pin(ch, pins[i]);
  }
}

TEST(TranscriptDigest, PrivateCoin) {
  const util::SetPair p = reference_pair();
  sim::Channel ch(/*record_transcript=*/true);
  util::Rng priv(2024);
  const auto out =
      core::private_coin_intersection(ch, priv, kUniverse, p.s, p.t, {});
  EXPECT_EQ(out.alice, p.expected_intersection);
  expect_pin(ch, {9151u, 18u, 0x3e21fc4cd69323e4ull});
}

// Fact 3.5 equality on its own (the verification-tree pins cover it only
// as a sub-protocol). One pin per hash width folds every case at that
// width: single tests on equal and unequal strings, and batches of 0, 1
// and 37 instances mixing equal and unequal pairs. The fold covers bits,
// rounds, transcript digest and verdicts of every case.
TEST(TranscriptDigest, Equality) {
  struct WidthPin {
    std::size_t width;
    std::uint64_t bits;
    std::uint64_t rounds;
    std::uint64_t fold;
  };
  const WidthPin pins[] = {
      {1u, 80u, 8u, 0x9ddc60ea243eed5aull},
      {63u, 2560u, 8u, 0xf91f9a2628ba812full},
      {64u, 2600u, 8u, 0xbf8889a290139e7full},
      {65u, 2640u, 8u, 0x642014a0581fe75dull},
      {512u, 20520u, 8u, 0x0bfd697a224462e4ull},  // 2k, k = 256
  };
  // Instance i: a random string of 1..300 bits; odd instances compare it
  // against a copy with one bit flipped, even ones against an exact copy.
  util::Rng wrng(0xE0);
  std::vector<util::BitBuffer> xa(37);
  std::vector<util::BitBuffer> xb(37);
  for (std::size_t i = 0; i < xa.size(); ++i) {
    const std::size_t len = 1 + wrng.below(300);
    const std::size_t flip = i % 2 == 1 ? wrng.below(len) : len;
    for (std::size_t b = 0; b < len; ++b) {
      const bool bit = wrng.below(2) == 1;
      xa[i].append_bit(bit);
      xb[i].append_bit(b == flip ? !bit : bit);
    }
  }
  const std::vector<util::BitSpan> va(xa.begin(), xa.end());
  const std::vector<util::BitSpan> vb(xb.begin(), xb.end());
  for (const WidthPin& pin : pins) {
    SCOPED_TRACE(testing::Message() << "width=" << pin.width);
    std::uint64_t bits = 0;
    std::uint64_t rounds = 0;
    std::uint64_t fold = 0;
    const auto absorb = [&](const sim::Channel& ch,
                            const std::vector<bool>& verdicts) {
      bits += ch.cost().bits_total;
      rounds += ch.cost().rounds;
      fold = util::mix64(fold, ch.transcript()->digest());
      for (bool v : verdicts) fold = util::mix64(fold, v ? 1 : 2);
    };
    sim::SharedRandomness sh(31337);
    for (std::size_t i = 0; i < 2; ++i) {
      sim::Channel ch(/*record_transcript=*/true);
      const bool v = eq::equality_test(ch, sh, 7 + i, xa[i], xb[i], pin.width);
      if (i % 2 == 0) {
        EXPECT_TRUE(v);  // one-sided: equal => "equal"
      }
      absorb(ch, {v});
    }
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, xa.size()}) {
      sim::Channel ch(/*record_transcript=*/true);
      const std::vector<bool> v = eq::batch_equality_test(
          ch, sh, 11 + n, std::span(va).first(n), std::span(vb).first(n),
          pin.width);
      ASSERT_EQ(v.size(), n);
      for (std::size_t i = 0; i < n; i += 2) EXPECT_TRUE(v[i]);
      absorb(ch, v);
    }
    EXPECT_EQ(bits, pin.bits);
    EXPECT_EQ(rounds, pin.rounds);
    EXPECT_EQ(fold, pin.fold) << std::hex << "0x" << fold;
  }
}

// Phase tables of traced runs: one row per phase as
// "path bits messages rounds enters".
std::vector<std::string> phase_table(const obs::Tracer& tracer) {
  std::vector<std::string> rows;
  for (const obs::PhaseRow& row : tracer.breakdown()) {
    rows.push_back(row.path + " " + std::to_string(row.bits) + " " +
                   std::to_string(row.messages) + " " +
                   std::to_string(row.rounds) + " " +
                   std::to_string(row.enters));
  }
  return rows;
}

TEST(TranscriptDigest, BasicIntersectionBatchPhaseTable) {
  const util::SetPair p = reference_pair();
  // Eight instances over slices of the reference pair, two of them with
  // an empty side (no image bits flow for those).
  std::vector<std::pair<util::SetView, util::SetView>> pairs;
  const util::SetView s(p.s);
  const util::SetView t(p.t);
  for (std::size_t j = 0; j < 8; ++j) {
    const util::SetView sj = j == 3 ? util::SetView{} : s.subspan(j * 32, 32);
    const util::SetView tj = j == 5 ? util::SetView{} : t.subspan(j * 32, 32);
    pairs.emplace_back(sj, tj);
  }
  sim::Channel ch(/*record_transcript=*/true);
  obs::Tracer tracer;
  ch.set_tracer(&tracer);
  sim::SharedRandomness sh(31337);
  const auto cands =
      core::basic_intersection_batch(ch, sh, 7, kUniverse, pairs, 0.01);
  ASSERT_EQ(cands.size(), pairs.size());
  const std::vector<std::string> want = {
      " 7200 4 4 1",
      "size_exchange 156 2 2 1",
      "hash_exchange 7044 2 2 1",
  };
  EXPECT_EQ(phase_table(tracer), want);
  EXPECT_EQ(tracer.metrics().counter("bi.batches").value(), 1u);
  EXPECT_EQ(tracer.metrics().counter("bi.instances").value(), 8u);
  expect_pin(ch, {7200u, 4u, 0xeebd2f4e843f855dull});
}

TEST(TranscriptDigest, OneRoundHashPhaseTable) {
  const util::SetPair p = reference_pair();
  sim::Channel ch(/*record_transcript=*/true);
  obs::Tracer tracer;
  ch.set_tracer(&tracer);
  sim::SharedRandomness sh(31337);
  const auto out = core::one_round_hash(ch, sh, 7, kUniverse, p.s, p.t);
  EXPECT_EQ(out.alice, p.expected_intersection);
  const std::vector<std::string> want = {
      " 12322 2 2 1",
      "one_round_hash 12322 2 2 1",
      "one_round_hash/hash_exchange 12322 2 2 1",
  };
  EXPECT_EQ(phase_table(tracer), want);
  expect_pin(ch, {12322u, 2u, 0x46b573f738b3d517ull});
}

TEST(TranscriptDigest, VerificationTreePhaseTable) {
  const util::SetPair p = reference_pair();
  sim::Channel ch(/*record_transcript=*/true);
  obs::Tracer tracer;
  ch.set_tracer(&tracer);
  sim::SharedRandomness sh(31337);
  const auto out = core::verification_tree_intersection(ch, sh, 7, kUniverse,
                                                        p.s, p.t, {});
  EXPECT_EQ(out.alice, p.expected_intersection);
  const std::vector<std::string> want = {
      " 8773 16 16 1",
      "verification_tree 8773 16 16 1",
      "verification_tree/level=0 4644 6 6 1",
      "verification_tree/level=0/equality 1280 2 2 1",
      "verification_tree/level=0/basic_intersection 3364 4 4 1",
      "verification_tree/level=0/basic_intersection/size_exchange 810 2 2 1",
      "verification_tree/level=0/basic_intersection/hash_exchange 2554 2 2 1",
      "verification_tree/level=1 1825 6 6 1",
      "verification_tree/level=1/equality 1280 2 2 1",
      "verification_tree/level=1/basic_intersection 545 4 4 1",
      "verification_tree/level=1/basic_intersection/size_exchange 104 2 2 1",
      "verification_tree/level=1/basic_intersection/hash_exchange 441 2 2 1",
      "verification_tree/level=2 1248 2 2 1",
      "verification_tree/level=2/equality 1248 2 2 1",
      "verification_tree/level=3 1056 2 2 1",
      "verification_tree/level=3/equality 1056 2 2 1",
  };
  EXPECT_EQ(phase_table(tracer), want);
  expect_pin(ch, {8773u, 16u, 0x75047fe49cc263a9ull});
}

// Checkpoint determinism (docs/ROBUSTNESS.md § checkpoint granularity):
// interrupting at a phase boundary and resuming ON THE SAME CHANNEL must
// reproduce the uninterrupted transcript bit-for-bit, so the pins above
// double as resume pins. interrupt_after stores the snapshot before
// throwing, which is exactly the crash-at-boundary case the recovery
// layer replays from.

TEST(TranscriptDigest, BasicIntersectionResumesToSamePin) {
  const util::SetPair p = reference_pair();
  sim::Channel ch(/*record_transcript=*/true);
  sim::SharedRandomness sh(31337);
  core::Checkpoint ckpt;
  ckpt.interrupt_after("bi", 1);  // crash after the size exchange
  EXPECT_THROW(
      core::basic_intersection(ch, sh, 7, kUniverse, p.s, p.t, 0.01, &ckpt),
      core::CheckpointInterrupt);
  const auto cand =
      core::basic_intersection(ch, sh, 7, kUniverse, p.s, p.t, 0.01, &ckpt);
  EXPECT_TRUE(util::is_subset(p.expected_intersection, cand.s_candidate));
  EXPECT_EQ(ckpt.restores(), 1u);
  expect_pin(ch, {12356u, 4u, 0x39744265dda51437ull});
}

TEST(TranscriptDigest, BasicIntersectionResumesAfterImagesToSamePin) {
  const util::SetPair p = reference_pair();
  sim::Channel ch(/*record_transcript=*/true);
  sim::SharedRandomness sh(31337);
  core::Checkpoint ckpt;
  ckpt.interrupt_after("bi", 2);  // crash after Alice's images
  EXPECT_THROW(
      core::basic_intersection(ch, sh, 7, kUniverse, p.s, p.t, 0.01, &ckpt),
      core::CheckpointInterrupt);
  EXPECT_EQ(ckpt.bits_at_boundary(), 6195u);
  const auto cand =
      core::basic_intersection(ch, sh, 7, kUniverse, p.s, p.t, 0.01, &ckpt);
  EXPECT_TRUE(util::is_subset(p.expected_intersection, cand.s_candidate));
  EXPECT_EQ(ckpt.restores(), 1u);
  expect_pin(ch, {12356u, 4u, 0x39744265dda51437ull});
}

TEST(TranscriptDigest, VerificationTreeResumesToSamePin) {
  const util::SetPair p = reference_pair();
  sim::Channel ch(/*record_transcript=*/true);
  sim::SharedRandomness sh(31337);
  core::VerificationTreeParams params;
  params.rounds_r = 2;
  core::Checkpoint ckpt;
  ckpt.interrupt_after("vt", 1);  // crash after the first tree stage
  EXPECT_THROW(core::verification_tree_intersection(
                   ch, sh, 7, kUniverse, p.s, p.t, params, nullptr, &ckpt),
               core::CheckpointInterrupt);
  const auto out = core::verification_tree_intersection(
      ch, sh, 7, kUniverse, p.s, p.t, params, nullptr, &ckpt);
  EXPECT_EQ(out.alice, p.expected_intersection);
  EXPECT_EQ(ckpt.restores(), 1u);
  expect_pin(ch, {10541u, 8u, 0xc571e58501bd451full});
}

TEST(TranscriptDigest, BucketEqResumesToSamePin) {
  const util::SetPair p = reference_pair();
  sim::Channel ch(/*record_transcript=*/true);
  sim::SharedRandomness sh(31337);
  core::Checkpoint ckpt;
  // Crash inside the amortized-EQ ladder, after its second level: boundary
  // 1 is the size exchange, boundaries 2, 3, ... the completed levels.
  ckpt.interrupt_after("bucket_eq", 3);
  EXPECT_THROW(core::bucket_eq_intersection(ch, sh, 7, kUniverse, p.s, p.t, 3,
                                            nullptr, &ckpt),
               core::CheckpointInterrupt);
  const auto out = core::bucket_eq_intersection(ch, sh, 7, kUniverse, p.s, p.t,
                                                3, nullptr, &ckpt);
  EXPECT_EQ(out.alice, p.expected_intersection);
  EXPECT_GE(ckpt.restores(), 1u);
  expect_pin(ch, {4456u, 50u, 0x164304b897a7afb2ull});
}

TEST(TranscriptDigest, MultipartyCoordinator) {
  util::Rng wrng(555);
  const auto inst =
      util::random_multi_sets(wrng, std::uint64_t{1} << 20, 9, 64, 16);
  sim::Network net(9);
  sim::SharedRandomness sh(99);
  const auto res =
      multiparty::coordinator_intersection(net, sh, 1u << 20, inst.sets);
  EXPECT_EQ(res.intersection, inst.expected_intersection);
  EXPECT_EQ(net.total_bits(), 20587u);
  EXPECT_EQ(net.rounds(), 22u);
  EXPECT_EQ(net.max_player_bits(), 20587u);
}

TEST(TranscriptDigest, MultipartyTournament) {
  util::Rng wrng(555);
  const auto inst =
      util::random_multi_sets(wrng, std::uint64_t{1} << 20, 9, 64, 16);
  sim::Network net(9);
  sim::SharedRandomness sh(99);
  const auto res =
      multiparty::tournament_intersection(net, sh, 1u << 20, inst.sets);
  EXPECT_EQ(res.intersection, inst.expected_intersection);
  EXPECT_EQ(net.total_bits(), 12209u);
  EXPECT_EQ(net.rounds(), 46u);
  EXPECT_EQ(net.max_player_bits(), 4704u);
}

}  // namespace
}  // namespace setint

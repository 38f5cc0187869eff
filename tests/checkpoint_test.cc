// core::Checkpoint unit tests + protocol resume equivalence.
//
// The snapshot store itself is trivial (single slot, clear/restore
// counters, the interrupt_after test knob); what matters is the contract
// the checkpointable protocols build on it: interrupting at any phase
// boundary and re-entering with the same Checkpoint yields the SAME
// outputs as an uninterrupted run, because interrupt_after stores the
// snapshot before throwing — the interruption lands exactly on the
// boundary. Transcript-level bit-identity of resumed runs is pinned
// separately in tests/transcript_digest_test.cc.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/basic_intersection.h"
#include "core/checkpoint.h"
#include "core/verification_tree.h"
#include "eq/amortized_eq.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "util/bitio.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

TEST(Checkpoint, SaveRestoreRoundTrip) {
  core::Checkpoint ckpt;
  EXPECT_TRUE(ckpt.empty());
  EXPECT_FALSE(ckpt.has("vt"));
  EXPECT_EQ(ckpt.snapshots(), 0u);

  util::BitBuffer blob;
  blob.append_gamma64(42);
  ckpt.save("vt", 3, blob, 1234);
  EXPECT_FALSE(ckpt.empty());
  EXPECT_TRUE(ckpt.has("vt"));
  EXPECT_FALSE(ckpt.has("bi"));
  EXPECT_EQ(ckpt.tag(), "vt");
  EXPECT_EQ(ckpt.phase(), 3u);
  EXPECT_EQ(ckpt.bits_at_boundary(), 1234u);
  EXPECT_EQ(ckpt.snapshots(), 1u);
  util::BitReader reader(ckpt.state());
  EXPECT_EQ(reader.read_gamma64(), 42u);

  // A newer snapshot replaces the old one regardless of tag.
  ckpt.save("bi", 1, util::BitBuffer{}, 2000);
  EXPECT_TRUE(ckpt.has("bi"));
  EXPECT_FALSE(ckpt.has("vt"));
  EXPECT_EQ(ckpt.snapshots(), 2u);

  ckpt.note_restore();
  EXPECT_EQ(ckpt.restores(), 1u);

  ckpt.clear();
  EXPECT_TRUE(ckpt.empty());
  // Counters survive clear(): they are session-lifetime telemetry.
  EXPECT_EQ(ckpt.snapshots(), 2u);
  EXPECT_EQ(ckpt.restores(), 1u);
}

TEST(Checkpoint, InterruptKnobStoresThenThrowsOnce) {
  core::Checkpoint ckpt;
  ckpt.interrupt_after("vt", 2);
  // Wrong tag / earlier phase: the knob stays armed, save succeeds.
  EXPECT_NO_THROW(ckpt.save("bi", 5, util::BitBuffer{}, 0));
  EXPECT_NO_THROW(ckpt.save("vt", 1, util::BitBuffer{}, 10));
  // Matching save: the snapshot lands, THEN the interrupt fires.
  EXPECT_THROW(ckpt.save("vt", 2, util::BitBuffer{}, 20),
               core::CheckpointInterrupt);
  EXPECT_TRUE(ckpt.has("vt"));
  EXPECT_EQ(ckpt.phase(), 2u);
  EXPECT_EQ(ckpt.bits_at_boundary(), 20u);
  // Disarmed after firing: the same save no longer throws.
  EXPECT_NO_THROW(ckpt.save("vt", 3, util::BitBuffer{}, 30));
}

// Interrupt Basic-Intersection at each of its phase boundaries; the
// resumed run must produce the identical candidate pair.
TEST(Checkpoint, BasicIntersectionResumeMatchesUninterrupted) {
  const std::uint64_t universe = std::uint64_t{1} << 20;
  util::Rng wrng(7101);
  const util::SetPair p = util::random_set_pair(wrng, universe, 96, 32);
  sim::SharedRandomness sh(4242);

  sim::Channel clean;
  const auto want =
      core::basic_intersection(clean, sh, 11, universe, p.s, p.t, 0.01);

  for (std::uint64_t phase = 1; phase <= 2; ++phase) {
    SCOPED_TRACE(testing::Message() << "interrupt at bi phase " << phase);
    sim::Channel ch;
    core::Checkpoint ckpt;
    ckpt.interrupt_after("bi", phase);
    EXPECT_THROW(core::basic_intersection(ch, sh, 11, universe, p.s, p.t, 0.01,
                                          &ckpt),
                 core::CheckpointInterrupt);
    const auto got =
        core::basic_intersection(ch, sh, 11, universe, p.s, p.t, 0.01, &ckpt);
    EXPECT_EQ(got.s_candidate, want.s_candidate);
    EXPECT_EQ(got.t_candidate, want.t_candidate);
    EXPECT_EQ(ckpt.restores(), 1u);
    EXPECT_TRUE(util::is_subset(p.expected_intersection, got.s_candidate));
  }
}

// Interrupt the amortized-EQ ladder after every level; resumed verdicts
// must match the uninterrupted run's exactly.
TEST(Checkpoint, AmortizedEqResumeMatchesUninterrupted) {
  util::Rng rng(515);
  std::vector<util::BitBuffer> xs(12), ys(12);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::uint64_t v = rng.next() & 0xFFFF;
    xs[i].append_bits(v, 16);
    // Half the pairs agree, half differ.
    ys[i].append_bits(i % 2 == 0 ? v : v ^ 0x11, 16);
  }
  sim::SharedRandomness sh(990);

  sim::Channel clean;
  const std::vector<bool> want = eq::amortized_equality(clean, sh, 3, xs, ys);

  for (std::uint64_t level = 1; level <= 4; ++level) {
    SCOPED_TRACE(testing::Message() << "interrupt after level " << level);
    sim::Channel ch;
    core::Checkpoint ckpt;
    ckpt.interrupt_after("amortized_eq", level);
    try {
      (void)eq::amortized_equality(ch, sh, 3, xs, ys, nullptr, &ckpt);
      // The ladder may finish in fewer levels than `level`; then the knob
      // never fires and the run above IS the uninterrupted run.
      continue;
    } catch (const core::CheckpointInterrupt&) {
    }
    const std::vector<bool> got =
        eq::amortized_equality(ch, sh, 3, xs, ys, nullptr, &ckpt);
    EXPECT_EQ(got, want);
    EXPECT_EQ(ckpt.restores(), 1u);
  }
}

// The verification tree checkpoints per stage; resuming at any stage
// boundary must not change the final intersection, and the resumed
// session's bits, rounds and transcript must equal the uninterrupted one.
TEST(Checkpoint, VerificationTreeResumeMatchesUninterrupted) {
  const std::uint64_t universe = std::uint64_t{1} << 20;
  util::Rng wrng(808);
  const util::SetPair p = util::random_set_pair(wrng, universe, 128, 48);
  sim::SharedRandomness sh(31337);
  core::VerificationTreeParams params;
  params.rounds_r = 0;  // auto depth: several checkpointable stages

  sim::Channel clean(/*record_transcript=*/true);
  const auto want = core::verification_tree_intersection(clean, sh, 9, universe,
                                                         p.s, p.t, params);
  EXPECT_EQ(want.alice, p.expected_intersection);

  std::uint64_t interrupted = 0;
  for (std::uint64_t stage = 1; stage <= 8; ++stage) {
    SCOPED_TRACE(testing::Message() << "interrupt after stage " << stage);
    sim::Channel ch(/*record_transcript=*/true);
    core::Checkpoint ckpt;
    ckpt.interrupt_after("vt", stage);
    try {
      (void)core::verification_tree_intersection(ch, sh, 9, universe, p.s, p.t,
                                                 params, nullptr, &ckpt);
      continue;  // tree shallower than `stage`: nothing to resume
    } catch (const core::CheckpointInterrupt&) {
    }
    ++interrupted;
    EXPECT_EQ(ckpt.phase(), stage);
    const auto got = core::verification_tree_intersection(
        ch, sh, 9, universe, p.s, p.t, params, nullptr, &ckpt);
    EXPECT_EQ(got.alice, want.alice);
    EXPECT_EQ(got.bob, want.bob);
    EXPECT_GE(ckpt.restores(), 1u);
    EXPECT_EQ(ch.cost().bits_total, clean.cost().bits_total);
    EXPECT_EQ(ch.cost().rounds, clean.cost().rounds);
    EXPECT_EQ(ch.transcript()->digest(), clean.transcript()->digest());
  }
  EXPECT_GE(interrupted, 3u);
}

}  // namespace
}  // namespace setint

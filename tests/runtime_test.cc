// Tests for the strictly-separated execution mode: runner behaviour and
// party correctness. The parties are the only implementation of equality,
// one-round hashing and Basic-Intersection, so their transcripts are
// pinned by tests/transcript_digest_test.cc and tests/golden_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/parties.h"
#include "core/resource_limits.h"
#include "obs/tracer.h"
#include "sim/adversary.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "sim/runtime.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

util::BitBuffer content(std::uint64_t v) {
  util::BitBuffer b;
  b.append_bits(v, 40);
  return b;
}

// ---------- scheduler ----------

class StallingParty final : public sim::Party {
 public:
  std::optional<sim::Outgoing> start() override { return sim::Outgoing{}; }
  std::optional<sim::Outgoing> on_message(const util::BitBuffer&) override {
    return std::nullopt;  // never finishes, never replies
  }
  bool done() const override { return false; }
};

TEST(Runtime, DetectsStalledConversations) {
  sim::Channel ch;
  StallingParty a;
  StallingParty b;
  EXPECT_THROW(sim::run_two_party(ch, a, b), std::runtime_error);
}

class ChattyParty final : public sim::Party {
 public:
  std::optional<sim::Outgoing> start() override { return sim::Outgoing{}; }
  std::optional<sim::Outgoing> on_message(const util::BitBuffer&) override {
    return sim::Outgoing{};  // ping-pong forever
  }
  bool done() const override { return false; }
};

TEST(Runtime, EnforcesMessageBudget) {
  sim::Channel ch;
  ChattyParty a;
  ChattyParty b;
  EXPECT_THROW(sim::run_two_party(ch, a, b, /*max_messages=*/100),
               std::runtime_error);
}

// Alice sends one 64-bit word (a checkpoint boundary once delivered); Bob
// records what he receives and replies one bit.
class WordAlice final : public sim::Party {
 public:
  std::optional<sim::Outgoing> start() override {
    sim::Outgoing msg{{}, "word", {}, /*boundary=*/true};
    msg.bits.append_bits(0x0123456789abcdefull, 64);
    return msg;
  }
  std::optional<sim::Outgoing> on_message(const util::BitBuffer&) override {
    done_ = true;
    return std::nullopt;
  }
  bool done() const override { return done_; }

 private:
  bool done_ = false;
};

class RecordingBob final : public sim::Party {
 public:
  explicit RecordingBob(std::vector<util::BitBuffer>* received)
      : received_(received) {}
  std::optional<sim::Outgoing> on_message(
      const util::BitBuffer& message) override {
    received_->push_back(message);
    sim::Outgoing ack{{}, "ack"};
    ack.bits.append_bit(true);
    return ack;
  }
  bool done() const override { return !received_->empty(); }

 private:
  std::vector<util::BitBuffer>* received_;
};

// A resumed run hands the receiver the bytes that were delivered before
// the interruption, not a regeneration of the honest message: under a
// Byzantine sender the two differ.
TEST(Runtime, ResumeReplaysTheDeliveredBytes) {
  sim::AdversarySpec spec;
  spec.party = sim::PartyId::kAlice;
  spec.attack = sim::AttackClass::kRandomGarbage;
  spec.frame_bits = 256;
  sim::Adversary adversary(spec);
  sim::Channel ch(/*record_transcript=*/true);
  ch.set_adversary(&adversary);
  core::Checkpoint ckpt;
  ckpt.interrupt_after("word", 1);
  std::vector<util::BitBuffer> received;
  {
    WordAlice alice;
    RecordingBob bob(&received);
    EXPECT_THROW(sim::run_two_party(ch, alice, bob, 2, &ckpt, "word"),
                 core::CheckpointInterrupt);
  }
  EXPECT_TRUE(received.empty());
  WordAlice alice;
  RecordingBob bob(&received);
  sim::run_two_party(ch, alice, bob, 2, &ckpt, "word");
  ASSERT_EQ(received.size(), 1u);
  const util::BitBuffer& delivered = ch.transcript()->entries()[0].payload;
  EXPECT_EQ(received[0], delivered);
  EXPECT_NE(received[0], alice.start()->bits);  // the crafted frame
  EXPECT_EQ(ckpt.restores(), 1u);
  EXPECT_EQ(ch.cost().messages, 2u);  // the word is not sent again
}

// Speaks one bit per turn, metered under the next phase path of its
// script; done once the script is spent.
class ScriptedParty final : public sim::Party {
 public:
  explicit ScriptedParty(std::vector<std::string_view> phases)
      : phases_(std::move(phases)) {}
  std::optional<sim::Outgoing> start() override { return next(); }
  std::optional<sim::Outgoing> on_message(const util::BitBuffer&) override {
    return next();
  }
  bool done() const override { return next_ == phases_.size(); }

 private:
  std::optional<sim::Outgoing> next() {
    if (done()) return std::nullopt;
    sim::Outgoing msg{{}, "m", phases_[next_++]};
    msg.bits.append_bit(true);
    return msg;
  }

  std::vector<std::string_view> phases_;
  std::size_t next_ = 0;
};

// Moving between '/'-separated phase paths pops and pushes only the
// segments that change: a shared leading segment stays one span entry.
TEST(Runtime, PhasePathsOpenOnlyChangedSegments) {
  sim::Channel ch;
  obs::Tracer tracer;
  ch.set_tracer(&tracer);
  // Delivered order: a/b, a/b, a/c, a, a/c/d, (caller's span), e.
  ScriptedParty alice({"a/b", "a/c", "a/c/d", "e"});
  ScriptedParty bob({"a/b", "a", ""});
  sim::run_two_party(ch, alice, bob);
  std::vector<std::string> rows;
  for (const obs::PhaseRow& row : tracer.breakdown()) {
    rows.push_back(row.path + " " + std::to_string(row.messages) + " " +
                   std::to_string(row.enters));
  }
  const std::vector<std::string> want = {
      " 7 1", "a 5 1", "a/b 2 1", "a/c 2 2", "a/c/d 1 1", "e 1 1",
  };
  EXPECT_EQ(rows, want);
  EXPECT_EQ(tracer.depth(), 0);  // every segment closed at the end
}

// ---------- turns of several messages ----------

// Speaks its script one turn at a time: turns[i] one-byte messages in its
// i-th turn, each led by a bit saying whether the turn goes on (so the
// receiver knows when to stay silent). A turn's last message is a
// checkpoint boundary. Records every message it receives.
class TurnParty final : public sim::Party {
 public:
  TurnParty(std::vector<std::size_t> turns, std::uint64_t tag)
      : turns_(std::move(turns)), tag_(tag) {}
  std::optional<sim::Outgoing> start() override { return speak(); }
  std::optional<sim::Outgoing> on_message(
      const util::BitBuffer& message) override {
    received_.push_back(message);
    util::BitReader in(message);
    if (in.read_bit()) return std::nullopt;  // the peer keeps the floor
    return speak();
  }
  std::optional<sim::Outgoing> next() override { return speak(); }
  bool done() const override { return turn_ == turns_.size(); }
  const std::vector<util::BitBuffer>& received() const { return received_; }

 private:
  std::optional<sim::Outgoing> speak() {
    if (done()) return std::nullopt;
    const bool more = ++sent_ < turns_[turn_];
    if (!more) {
      ++turn_;
      sent_ = 0;
    }
    sim::Outgoing msg{{}, "m"};
    msg.bits.append_bit(more);
    msg.bits.append_bits(tag_ + count_++, 8);
    msg.keep_floor = more;
    msg.boundary = !more;
    return msg;
  }

  std::vector<std::size_t> turns_;
  std::uint64_t tag_;
  std::size_t turn_ = 0;
  std::size_t sent_ = 0;
  std::uint64_t count_ = 0;
  std::vector<util::BitBuffer> received_;
};

TEST(RuntimeTurns, ThreeMessageTurnCountsOneRound) {
  sim::Channel ch;
  TurnParty alice({3}, 0x10);
  TurnParty bob({}, 0x20);
  sim::run_two_party(ch, alice, bob);
  EXPECT_EQ(ch.cost().messages, 3u);
  EXPECT_EQ(ch.cost().rounds, 1u);
  EXPECT_EQ(bob.received().size(), 3u);
}

TEST(RuntimeTurns, AlternatingTurnsCountOneRoundEach) {
  sim::Channel ch;
  TurnParty alice({1, 3, 2}, 0x10);
  TurnParty bob({2, 1, 3}, 0x20);
  sim::run_two_party(ch, alice, bob);
  EXPECT_EQ(ch.cost().messages, 12u);
  EXPECT_EQ(ch.cost().rounds, 6u);
  EXPECT_EQ(alice.received().size(), 6u);
  EXPECT_EQ(bob.received().size(), 6u);
}

TEST(RuntimeTurns, ReceiverReplyingMidTurnThrows) {
  sim::Channel ch;
  TurnParty alice({2}, 0x10);
  ChattyParty bob;  // answers every message, even one that keeps the floor
  EXPECT_THROW(sim::run_two_party(ch, alice, bob), std::logic_error);
  EXPECT_EQ(ch.cost().messages, 1u);
}

// Flags keep_floor on its opening message and boundary too, or has no
// next() message after it.
class BadTurnParty final : public sim::Party {
 public:
  explicit BadTurnParty(bool boundary) : boundary_(boundary) {}
  std::optional<sim::Outgoing> start() override {
    sim::Outgoing msg{{}, "bad", {}, boundary_};
    msg.bits.append_bit(true);
    msg.keep_floor = true;
    return msg;
  }
  std::optional<sim::Outgoing> on_message(const util::BitBuffer&) override {
    return std::nullopt;
  }
  bool done() const override { return false; }

 private:
  bool boundary_;
};

TEST(RuntimeTurns, BoundaryMustEndATurn) {
  sim::Channel ch;
  BadTurnParty alice(/*boundary=*/true);
  TurnParty bob({}, 0x20);
  EXPECT_THROW(sim::run_two_party(ch, alice, bob), std::logic_error);
  EXPECT_EQ(ch.cost().messages, 0u);  // refused before it is sent
}

TEST(RuntimeTurns, KeepingTheFloorNeedsANextMessage) {
  sim::Channel ch;
  BadTurnParty alice(/*boundary=*/false);
  TurnParty bob({}, 0x20);
  EXPECT_THROW(sim::run_two_party(ch, alice, bob), std::logic_error);
}

// A crash at every boundary, then a resume on the same channel with fresh
// parties, reproduces the uninterrupted transcript and what each party
// received.
TEST(RuntimeTurns, ResumeAtEveryBoundaryReproducesTheTranscript) {
  const std::vector<std::size_t> alice_turns = {1, 3, 2};
  const std::vector<std::size_t> bob_turns = {2, 1, 3};
  sim::Channel clean(/*record_transcript=*/true);
  TurnParty alice(alice_turns, 0x10);
  TurnParty bob(bob_turns, 0x20);
  sim::run_two_party(clean, alice, bob);
  for (std::uint64_t b = 1; b <= 6; ++b) {
    SCOPED_TRACE(testing::Message() << "interrupt at boundary " << b);
    sim::Channel ch(/*record_transcript=*/true);
    core::Checkpoint ckpt;
    ckpt.interrupt_after("turns", b);
    {
      TurnParty a(alice_turns, 0x10);
      TurnParty o(bob_turns, 0x20);
      EXPECT_THROW(sim::run_two_party(ch, a, o, 64, &ckpt, "turns"),
                   core::CheckpointInterrupt);
    }
    TurnParty a(alice_turns, 0x10);
    TurnParty o(bob_turns, 0x20);
    sim::run_two_party(ch, a, o, 64, &ckpt, "turns");
    EXPECT_EQ(ckpt.restores(), 1u);
    EXPECT_EQ(*ch.transcript(), *clean.transcript());
    EXPECT_EQ(ch.cost(), clean.cost());
    EXPECT_EQ(a.received(), alice.received());
    EXPECT_EQ(o.received(), bob.received());
  }
}

// ---------- equality parties ----------

TEST(RuntimeEquality, CorrectVerdicts) {
  sim::SharedRandomness shared(1);
  const util::BitBuffer seven_bits = content(7);
  const util::BitBuffer eight_bits = content(8);
  const util::BitSpan seven[] = {seven_bits};
  const util::BitSpan eight[] = {eight_bits};
  {
    sim::Channel ch;
    std::vector<bool> alice_verdicts;
    std::vector<bool> bob_verdicts;
    core::EqualityHasher alice(shared, 0, seven, 24, alice_verdicts,
                               sim::PartyEnv(ch));
    core::EqualityVerifier bob(shared, 0, seven, 24, bob_verdicts,
                               sim::PartyEnv(ch));
    sim::run_two_party(ch, alice, bob);
    EXPECT_EQ(alice.verdicts(), std::vector<bool>{true});
    EXPECT_EQ(bob.verdicts(), std::vector<bool>{true});
    EXPECT_EQ(ch.cost().bits_total, 25u);
    EXPECT_EQ(ch.cost().rounds, 2u);
  }
  {
    sim::Channel ch;
    std::vector<bool> alice_verdicts;
    std::vector<bool> bob_verdicts;
    core::EqualityHasher alice(shared, 1, seven, 24, alice_verdicts,
                               sim::PartyEnv(ch));
    core::EqualityVerifier bob(shared, 1, eight, 24, bob_verdicts,
                               sim::PartyEnv(ch));
    sim::run_two_party(ch, alice, bob);
    EXPECT_EQ(alice.verdicts(), std::vector<bool>{false});
    EXPECT_EQ(bob.verdicts(), std::vector<bool>{false});
  }
}

// ---------- one-round hashing parties ----------

TEST(RuntimeOneRound, ComputesIntersection) {
  util::Rng wrng(2);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 24, 256, 128);
  sim::SharedRandomness shared(2);
  sim::Channel ch;
  const std::uint64_t k_bound = 256;
  core::OneRoundHashAlice alice(shared, 0, 1u << 24, p.s, k_bound, 3,
                                sim::PartyEnv(ch));
  core::OneRoundHashBob bob(shared, 0, 1u << 24, p.t, k_bound, 3,
                            sim::PartyEnv(ch));
  sim::run_two_party(ch, alice, bob);
  EXPECT_EQ(alice.candidates(), p.expected_intersection);
  EXPECT_EQ(bob.candidates(), p.expected_intersection);
  EXPECT_EQ(ch.cost().rounds, 2u);
}

// ---------- Basic-Intersection parties ----------

TEST(RuntimeBasicIntersection, LemmaProperties) {
  util::Rng wrng(4);
  for (std::uint64_t trial = 0; trial < 15; ++trial) {
    const util::SetPair p = util::random_set_pair(wrng, 1u << 24, 64, 32);
    sim::SharedRandomness shared(trial);
    sim::Channel ch;
    const util::SetView s[] = {p.s};
    const util::SetView t[] = {p.t};
    core::BasicIntersectionParty alice(shared, trial, 1u << 24, s, 0.01,
                                       sim::PartyEnv(ch), sim::PartyId::kAlice,
                                       sim::PartyId::kAlice);
    core::BasicIntersectionParty bob(shared, trial, 1u << 24, t, 0.01,
                                     sim::PartyEnv(ch), sim::PartyId::kBob,
                                     sim::PartyId::kAlice);
    sim::run_two_party(ch, alice, bob);
    EXPECT_TRUE(util::is_subset(alice.candidate(0), p.s));
    EXPECT_TRUE(util::is_subset(bob.candidate(0), p.t));
    EXPECT_TRUE(util::is_subset(p.expected_intersection, alice.candidate(0)));
    EXPECT_TRUE(util::is_subset(p.expected_intersection, bob.candidate(0)));
    EXPECT_EQ(ch.cost().rounds, 3u);
    EXPECT_EQ(ch.cost().messages, 4u);
  }
}

// Either party may open: with Bob opening (as the verifier of the
// verification tree's even stages does), every message keeps its label
// and the candidates are the same.
TEST(RuntimeBasicIntersection, BobOpensWithTheSameMessages) {
  util::Rng wrng(5);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 24, 64, 32);
  sim::SharedRandomness shared(5);
  const util::SetView s[] = {p.s};
  const util::SetView t[] = {p.t};
  sim::Channel a_opens(/*record_transcript=*/true);
  core::BasicIntersectionParty alice(shared, 0, 1u << 24, s, 0.01,
                                     sim::PartyEnv(a_opens),
                                     sim::PartyId::kAlice,
                                     sim::PartyId::kAlice);
  core::BasicIntersectionParty bob(shared, 0, 1u << 24, t, 0.01,
                                   sim::PartyEnv(a_opens), sim::PartyId::kBob,
                                   sim::PartyId::kAlice);
  sim::run_two_party(a_opens, alice, bob);
  sim::Channel b_opens(/*record_transcript=*/true);
  core::BasicIntersectionParty alice2(shared, 0, 1u << 24, s, 0.01,
                                      sim::PartyEnv(b_opens),
                                      sim::PartyId::kAlice, sim::PartyId::kBob);
  core::BasicIntersectionParty bob2(shared, 0, 1u << 24, t, 0.01,
                                    sim::PartyEnv(b_opens), sim::PartyId::kBob,
                                    sim::PartyId::kBob);
  sim::run_two_party(b_opens, alice2, bob2, 4, nullptr, {},
                     sim::PartyId::kBob);
  EXPECT_TRUE(std::equal(alice.candidate(0).begin(), alice.candidate(0).end(),
                         alice2.candidate(0).begin(),
                         alice2.candidate(0).end()));
  EXPECT_TRUE(std::equal(bob.candidate(0).begin(), bob.candidate(0).end(),
                         bob2.candidate(0).begin(), bob2.candidate(0).end()));
  const auto& a = a_opens.transcript()->entries();
  const auto& b = b_opens.transcript()->entries();
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(b.size(), 4u);
  // Alice opening: a-sizes, b-sizes, b-hashes, a-hashes. Bob opening:
  // b-sizes, a-sizes, a-hashes, b-hashes. Each payload is the same.
  const std::size_t same[] = {1, 0, 3, 2};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(a[i].label, b[same[i]].label) << i;
    EXPECT_EQ(a[i].payload, b[same[i]].payload) << i;
  }
  EXPECT_EQ(a_opens.cost(), b_opens.cost());
}

TEST(RuntimeBasicIntersection, EmptySideShortCircuits) {
  sim::SharedRandomness shared(6);
  sim::Channel ch;
  const util::Set one_two = {1, 2};
  const util::SetView s[] = {util::SetView{}};
  const util::SetView t[] = {one_two};
  core::BasicIntersectionParty alice(shared, 0, 1000, s, 0.01,
                                     sim::PartyEnv(ch), sim::PartyId::kAlice,
                                     sim::PartyId::kAlice);
  core::BasicIntersectionParty bob(shared, 0, 1000, t, 0.01, sim::PartyEnv(ch),
                                   sim::PartyId::kBob, sim::PartyId::kAlice);
  sim::run_two_party(ch, alice, bob);
  EXPECT_TRUE(alice.candidate(0).empty());
  EXPECT_TRUE(bob.candidate(0).empty());
  EXPECT_LT(ch.cost().bits_total, 10u);
}

// A hashed-image frame whose count fits inside the frame but exceeds
// max_decoded_items is refused by the party that decodes it.
TEST(RuntimeBasicIntersection, ImageCountOverDecodeLimitThrows) {
  util::Rng wrng(7);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 20, 64, 16);
  core::ResourceLimits limits;
  limits.max_decoded_items = 32;
  sim::Channel ch;
  ch.set_limits(&limits);
  sim::SharedRandomness shared(7);
  const util::SetView t[] = {p.t};
  core::BasicIntersectionParty bob(shared, 0, 1u << 20, t, 0.01,
                                   sim::PartyEnv(ch), sim::PartyId::kBob,
                                   sim::PartyId::kAlice);
  util::BitBuffer sizes;
  sizes.append_gamma64(64);
  ASSERT_TRUE(bob.on_message(sizes).has_value());
  // 40 items of 64 bits each, wider than any image width: the frame holds
  // every item it claims, so only the item cap can refuse it.
  util::BitBuffer images;
  images.append_gamma64(40);
  for (int i = 0; i < 40; ++i) images.append_bits(i, 64);
  EXPECT_THROW(bob.on_message(images), core::ResourceLimitError);
}

// A sizes frame with bits left after its sizes is forged: whichever
// party reads it refuses it at once, so a responder's images never follow
// forged sizes onto the wire.
TEST(RuntimeBasicIntersection, SizesWithTrailingBitsAreRefused) {
  sim::SharedRandomness shared(8);
  sim::Channel ch;
  const util::Set one_two = {1, 2};
  const util::SetView sets[] = {one_two};
  util::BitBuffer sizes;
  sizes.append_gamma64(2);
  sizes.append_bit(true);
  core::BasicIntersectionParty opener(shared, 0, 1000, sets, 0.01,
                                      sim::PartyEnv(ch), sim::PartyId::kAlice,
                                      sim::PartyId::kAlice);
  ASSERT_TRUE(opener.start().has_value());
  EXPECT_THROW(opener.on_message(sizes), std::invalid_argument);
  core::BasicIntersectionParty responder(shared, 0, 1000, sets, 0.01,
                                         sim::PartyEnv(ch), sim::PartyId::kBob,
                                         sim::PartyId::kAlice);
  EXPECT_THROW(responder.on_message(sizes), std::invalid_argument);
}

// Under a Byzantine responder whose sizes frame is an inflated length
// (a valid gamma code trailed by junk), the opener refuses the frame
// before the responder's images are sent: the run ends after 2 messages.
TEST(RuntimeBasicIntersection, ForgedSizesStopTheRunBeforeTheImages) {
  sim::AdversarySpec spec;
  spec.party = sim::PartyId::kBob;
  spec.attack = sim::AttackClass::kInflatedLength;
  spec.frame_bits = 256;
  sim::Adversary adversary(spec);
  sim::Channel ch(/*record_transcript=*/true);
  ch.set_adversary(&adversary);
  util::Rng wrng(9);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 20, 64, 16);
  sim::SharedRandomness shared(9);
  const util::SetView s[] = {p.s};
  const util::SetView t[] = {p.t};
  core::BasicIntersectionParty alice(shared, 0, 1u << 20, s, 0.01,
                                     sim::PartyEnv(ch), sim::PartyId::kAlice,
                                     sim::PartyId::kAlice);
  core::BasicIntersectionParty bob(shared, 0, 1u << 20, t, 0.01,
                                   sim::PartyEnv(ch), sim::PartyId::kBob,
                                   sim::PartyId::kAlice);
  EXPECT_THROW(sim::run_two_party(ch, alice, bob), std::invalid_argument);
  ASSERT_EQ(ch.transcript()->entries().size(), 2u);
  EXPECT_EQ(ch.transcript()->entries()[1].label, "bi-sizes-b");
  EXPECT_EQ(adversary.stats().frames_seen, 1u);
}

}  // namespace
}  // namespace setint

// Tests for the communication simulator: bit/message/round accounting on
// the two-party channel (single-bit correction and link-level resends of
// damaged frames included),
// transcript recording, shared randomness synchronization, and the m-party
// network's per-player billing.
#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "core/resource_limits.h"
#include "obs/recorder.h"
#include "obs/tracer.h"
#include "sim/channel.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/randomness.h"
#include "util/bitio.h"
#include "util/rng.h"

namespace setint {
namespace {

util::BitBuffer bits_of(std::uint64_t v, unsigned w) {
  util::BitBuffer b;
  b.append_bits(v, w);
  return b;
}

TEST(Channel, CountsBitsByDirection) {
  sim::Channel ch;
  ch.send(sim::PartyId::kAlice, bits_of(0, 10));
  ch.send(sim::PartyId::kBob, bits_of(0, 3));
  ch.send(sim::PartyId::kAlice, bits_of(0, 7));
  EXPECT_EQ(ch.cost().bits_total, 20u);
  EXPECT_EQ(ch.cost().bits_from_alice, 17u);
  EXPECT_EQ(ch.cost().bits_from_bob, 3u);
  EXPECT_EQ(ch.cost().messages, 3u);
}

TEST(Channel, RoundsCountMaximalSameDirectionRuns) {
  sim::Channel ch;
  // A A B B B A -> 3 rounds.
  ch.send(sim::PartyId::kAlice, bits_of(0, 1));
  ch.send(sim::PartyId::kAlice, bits_of(0, 1));
  ch.send(sim::PartyId::kBob, bits_of(0, 1));
  ch.send(sim::PartyId::kBob, bits_of(0, 1));
  ch.send(sim::PartyId::kBob, bits_of(0, 1));
  ch.send(sim::PartyId::kAlice, bits_of(0, 1));
  EXPECT_EQ(ch.cost().rounds, 3u);
  EXPECT_EQ(ch.cost().messages, 6u);
}

TEST(Channel, DeliveredPayloadIsExactlyWhatWasSent) {
  sim::Channel ch;
  util::BitBuffer payload;
  payload.append_bits(0x2bad, 16);
  const util::BitBuffer got = ch.send(sim::PartyId::kAlice, payload);
  EXPECT_TRUE(got == payload);
}

TEST(Channel, ZeroBitMessageStillCountsMessageAndRound) {
  sim::Channel ch;
  ch.send(sim::PartyId::kAlice, util::BitBuffer{});
  EXPECT_EQ(ch.cost().bits_total, 0u);
  EXPECT_EQ(ch.cost().messages, 1u);
  EXPECT_EQ(ch.cost().rounds, 1u);
}

// Regression: an empty payload is a real protocol action ("I have
// nothing") — it must advance the round on a direction change exactly
// like a non-empty one, and same-direction empties must NOT open rounds.
TEST(Channel, ZeroBitMessageAdvancesRoundOnDirectionChange) {
  sim::Channel ch;
  ch.send(sim::PartyId::kAlice, bits_of(0, 5));
  ch.send(sim::PartyId::kBob, util::BitBuffer{});     // new direction
  ch.send(sim::PartyId::kBob, util::BitBuffer{});     // same direction
  ch.send(sim::PartyId::kAlice, util::BitBuffer{});   // new direction
  EXPECT_EQ(ch.cost().bits_total, 5u);
  EXPECT_EQ(ch.cost().messages, 4u);
  EXPECT_EQ(ch.cost().rounds, 3u);
}

TEST(Channel, TranscriptRecordsWhenEnabled) {
  sim::Channel plain;
  EXPECT_EQ(plain.transcript(), nullptr);

  sim::Channel recording(/*record_transcript=*/true);
  recording.send(sim::PartyId::kAlice, bits_of(5, 4), "first");
  recording.send(sim::PartyId::kBob, bits_of(9, 8), "second");
  ASSERT_NE(recording.transcript(), nullptr);
  const auto& entries = recording.transcript()->entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].from, sim::PartyId::kAlice);
  EXPECT_EQ(entries[0].label, "first");
  EXPECT_EQ(entries[0].payload.size_bits(), 4u);
  EXPECT_EQ(entries[1].from, sim::PartyId::kBob);
}

// ---------- Link-level resend of damaged frames ----------

std::uint64_t counter_value(const obs::Tracer& tracer, const std::string& name) {
  const auto& counters = tracer.metrics().counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second.value();
}

// A framed send whose frame fails d deliveries costs (d+1) frames plus d
// one-bit NACKs from the receiver and 2d extra rounds, all attributed to
// the phase that sent it, so the tracer's root row still equals CostStats.
// drop_prob = 0.5 makes d a fair coin run; drops always fail the checksum,
// so d is exactly the plan's drop count.
TEST(ChannelResend, DamagedFrameCostsResendsAndNacks) {
  // body + checksum + syndrome (bit_width(52) = 6) + parity
  constexpr std::uint64_t kFrame = 20 + 32 + 6 + 1;
  std::set<std::uint64_t> seen;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    sim::FaultSpec spec;
    spec.drop_prob = 0.5;
    spec.seed = seed;
    sim::FaultPlan plan(spec);
    obs::Tracer tracer;
    sim::Channel ch;
    ch.set_fault_plan(&plan);
    ch.set_tracer(&tracer);
    util::BitBuffer got;
    try {
      obs::Span span(&tracer, "phase");
      got = ch.send(sim::PartyId::kAlice, bits_of(0xABCDE, 20), "frame");
    } catch (const sim::ChannelIntegrityError&) {
      continue;  // d = kMaxResends + 1, pinned by the next test
    }
    const std::uint64_t d = plan.stats().dropped_messages;
    seen.insert(d);
    ASSERT_LE(d, sim::Channel::kMaxResends) << seed;
    EXPECT_TRUE(got == bits_of(0xABCDE, 20)) << seed;
    EXPECT_EQ(ch.undetected_damage(), 0u) << seed;  // repaired, not delivered
    const sim::CostStats& cost = ch.cost();
    EXPECT_EQ(cost.bits_total, (d + 1) * kFrame + d) << seed;
    EXPECT_EQ(cost.bits_from_alice, (d + 1) * kFrame) << seed;
    EXPECT_EQ(cost.bits_from_bob, d) << seed;
    EXPECT_EQ(cost.messages, 2 * d + 1) << seed;
    EXPECT_EQ(cost.rounds, 2 * d + 1) << seed;
    EXPECT_EQ(plan.stats().messages_seen, d + 1) << seed;
    EXPECT_EQ(counter_value(tracer, "fault.resends"), d) << seed;
    EXPECT_EQ(counter_value(tracer, "fault.integrity_failures"), d) << seed;
    EXPECT_EQ(counter_value(tracer, "fault.injected"),
              plan.stats().faults_injected)
        << seed;
    const std::vector<obs::PhaseRow> rows = tracer.breakdown();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].bits, cost.bits_total) << seed;
    EXPECT_EQ(rows[0].messages, cost.messages) << seed;
    EXPECT_EQ(rows[0].rounds, cost.rounds) << seed;
    EXPECT_EQ(rows[1].path, "phase");
    EXPECT_EQ(rows[1].self_bits, cost.bits_total) << seed;
  }
  // Every resend depth below the cap occurred among the seeds.
  EXPECT_EQ(seen, (std::set<std::uint64_t>{0, 1, 2, 3}));
}

// A frame lost on every delivery is abandoned after kMaxResends resends:
// one ChannelIntegrityError, one recorder incident, but one integrity
// failure event per delivery.
TEST(ChannelResend, AbandonsFrameAfterMaxResends) {
  constexpr std::uint64_t kFrame = 12 + 32 + 6 + 1;
  constexpr std::uint64_t kResends = sim::Channel::kMaxResends;
  sim::FaultSpec spec;
  spec.drop_prob = 1.0;
  sim::FaultPlan plan(spec);
  obs::Tracer tracer;
  obs::FlightRecorder rec(64);
  sim::Channel ch;
  ch.set_fault_plan(&plan);
  ch.set_tracer(&tracer);
  ch.set_recorder(&rec);
  int throws = 0;
  try {
    ch.send(sim::PartyId::kAlice, bits_of(0xABC, 12), "doomed");
  } catch (const sim::ChannelIntegrityError&) {
    ++throws;
  }
  EXPECT_EQ(throws, 1);
  EXPECT_EQ(ch.cost().bits_total, (kResends + 1) * kFrame + kResends);
  EXPECT_EQ(ch.cost().rounds, 2 * kResends + 1);
  EXPECT_EQ(plan.stats().messages_seen, kResends + 1);
  EXPECT_EQ(counter_value(tracer, "fault.resends"), kResends);
  EXPECT_EQ(counter_value(tracer, "fault.integrity_failures"), kResends + 1);
  std::uint64_t failures = 0;
  std::uint64_t incidents = 0;
  for (const obs::FlightEvent& e : rec.snapshot()) {
    failures += e.kind == obs::FlightEventKind::kIntegrityFailure;
    incidents += e.kind == obs::FlightEventKind::kIncident;
  }
  EXPECT_EQ(failures, kResends + 1);
  EXPECT_EQ(incidents, 1u);
  EXPECT_EQ(rec.deliveries(), 0u);  // nothing reached the decoder
}

// Clean channels never frame, so they never take a pristine copy from
// the pool; a framed send borrows one buffer and returns it.
TEST(ChannelResend, OnlyFramedSendsCopyTheFrame) {
  sim::Channel clean;
  clean.send(sim::PartyId::kAlice, bits_of(0x1234, 16));
  EXPECT_EQ(clean.buffer_pool().acquired(), 0u);

  sim::FaultSpec spec;
  spec.flip_per_bit = 1e-9;
  sim::FaultPlan plan(spec);
  sim::Channel framed;
  framed.set_fault_plan(&plan);
  framed.send(sim::PartyId::kAlice, bits_of(0x1234, 16));
  framed.send(sim::PartyId::kBob, bits_of(0x5678, 16));
  EXPECT_EQ(framed.buffer_pool().acquired(), 2u);
  EXPECT_EQ(framed.buffer_pool().recycled(), 1u);
}

// ---------- Single-bit correction inside the integrity frame ----------

// Bits of the frame that carries a `body`-bit message: body, checksum,
// syndrome, parity.
std::uint64_t frame_bits(std::uint64_t body) {
  const std::uint64_t n = body + 32;
  return n + std::bit_width(n) + 1;
}

util::BitBuffer patterned_body(std::size_t bits) {
  util::Rng rng(bits);
  util::BitBuffer b;
  for (std::size_t i = 0; i < bits; ++i) b.append_bit(rng.coin());
  return b;
}

// The frame bits a FaultPlan with only flip_per_bit = p flips in each of
// `deliveries` deliveries of a `len`-bit frame. The plan draws one unit()
// per delivered bit, in order, from an Rng seeded with the spec's seed.
std::vector<std::vector<std::size_t>> predicted_flips(std::uint64_t seed,
                                                      double p,
                                                      std::size_t len,
                                                      int deliveries) {
  util::Rng rng(seed);
  std::vector<std::vector<std::size_t>> flips(deliveries);
  for (auto& delivery : flips) {
    for (std::size_t i = 0; i < len; ++i) {
      if (rng.unit() < p) delivery.push_back(i);
    }
  }
  return flips;
}

// Every single flip in the body, checksum or parity bit is corrected on
// delivery: one frame's bits, one round, no resend. A single flip in the
// syndrome field is caught and costs exactly one resend. Seeds are picked
// by replaying the plan's draws until every frame bit has been hit.
TEST(ChannelCorrection, SingleFlipsAreCorrectedInPlace) {
  for (std::size_t body_bits : {0, 1, 31, 63, 64, 65, 200}) {
    const util::BitBuffer body = patterned_body(body_bits);
    const std::size_t len = frame_bits(body_bits);
    const std::size_t n = body_bits + 32;
    const std::size_t syndrome_end = n + std::bit_width(n);
    const double p = 1.0 / static_cast<double>(len);
    std::vector<bool> covered(len, false);
    std::size_t left = len;
    for (std::uint64_t seed = 0; left > 0 && seed < 1'000'000; ++seed) {
      const auto flips = predicted_flips(seed, p, len, 2);
      if (flips[0].size() != 1 || covered[flips[0][0]]) continue;
      const std::size_t pos = flips[0][0];
      const bool in_syndrome = pos >= n && pos < syndrome_end;
      if (in_syndrome && !flips[1].empty()) continue;  // want a clean resend
      covered[pos] = true;
      --left;

      sim::FaultSpec spec;
      spec.flip_per_bit = p;
      spec.seed = seed;
      sim::FaultPlan plan(spec);
      obs::Tracer tracer;
      sim::Channel ch;
      ch.set_fault_plan(&plan);
      ch.set_tracer(&tracer);
      const util::BitBuffer got = ch.send(sim::PartyId::kAlice, body, "f");
      const std::string where =
          std::to_string(body_bits) + "-bit body, flip at " +
          std::to_string(pos);
      EXPECT_TRUE(got == body) << where;
      EXPECT_EQ(ch.undetected_damage(), 0u) << where;
      EXPECT_EQ(plan.stats().bits_flipped, 1u) << where;
      if (in_syndrome) {
        EXPECT_EQ(counter_value(tracer, "fault.resends"), 1u) << where;
        EXPECT_EQ(counter_value(tracer, "fault.corrected"), 0u) << where;
        EXPECT_EQ(ch.cost().bits_total, 2 * len + 1) << where;
        EXPECT_EQ(ch.cost().rounds, 3u) << where;
      } else {
        EXPECT_EQ(counter_value(tracer, "fault.resends"), 0u) << where;
        EXPECT_EQ(counter_value(tracer, "fault.integrity_failures"), 0u)
            << where;
        EXPECT_EQ(counter_value(tracer, "fault.corrected"), 1u) << where;
        EXPECT_EQ(ch.cost().bits_total, len) << where;
        EXPECT_EQ(ch.cost().messages, 1u) << where;
        EXPECT_EQ(ch.cost().rounds, 1u) << where;
      }
    }
    EXPECT_EQ(left, 0u) << body_bits << "-bit body: frame bits never hit";
  }
}

// Every pair of flips in the frame of a 20-bit body is caught: the frame
// is resent (or abandoned), and no damaged body reaches the decoder.
TEST(ChannelCorrection, DoubleFlipsAreResentNeverDecodedDamaged) {
  const util::BitBuffer body = patterned_body(20);
  const std::size_t len = frame_bits(20);
  const double p = 2.0 / static_cast<double>(len);
  std::set<std::pair<std::size_t, std::size_t>> covered;
  const std::size_t pairs = len * (len - 1) / 2;
  for (std::uint64_t seed = 0; covered.size() < pairs && seed < 1'000'000;
       ++seed) {
    const auto flips = predicted_flips(seed, p, len, 1);
    if (flips[0].size() != 2) continue;
    if (!covered.emplace(flips[0][0], flips[0][1]).second) continue;

    sim::FaultSpec spec;
    spec.flip_per_bit = p;
    spec.seed = seed;
    sim::FaultPlan plan(spec);
    obs::Tracer tracer;
    sim::Channel ch;
    ch.set_fault_plan(&plan);
    ch.set_tracer(&tracer);
    const std::string where = "flips at " + std::to_string(flips[0][0]) +
                              ", " + std::to_string(flips[0][1]);
    try {
      const util::BitBuffer got = ch.send(sim::PartyId::kAlice, body, "f");
      EXPECT_TRUE(got == body) << where;
    } catch (const sim::ChannelIntegrityError&) {
      // Abandoned after kMaxResends: nothing was decoded.
    }
    EXPECT_GE(counter_value(tracer, "fault.integrity_failures"), 1u) << where;
    EXPECT_GE(plan.stats().messages_seen, 2u) << where;
    EXPECT_EQ(ch.undetected_damage(), 0u) << where;
  }
  EXPECT_EQ(covered.size(), pairs);
}

// The word-level syndrome and parity equal a bit-at-a-time reference,
// with frame bits past n ignored, at lengths around word boundaries.
TEST(FrameCode, MatchesBitAtATimeReference) {
  util::Rng rng(0x5EC);
  for (std::size_t n : {0, 1, 63, 64, 65, 127, 128, 129, 191, 1024, 1025,
                        1087}) {
    for (std::size_t extra : {0, 1, 70}) {
      util::BitBuffer frame;
      for (std::size_t i = 0; i < n + extra; ++i) frame.append_bit(rng.coin());
      std::uint64_t syndrome = 0;
      bool parity = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (!frame.bit(i)) continue;
        syndrome ^= i + 1;
        parity = !parity;
      }
      const sim::FrameCode code = sim::frame_code(frame, n);
      EXPECT_EQ(code.syndrome, syndrome) << n << " + " << extra;
      EXPECT_EQ(code.parity, parity) << n << " + " << extra;
      EXPECT_LT(code.syndrome, std::uint64_t{1} << std::bit_width(n));
    }
  }
}

TEST(Transcript, DigestIsOrderSensitive) {
  sim::Transcript t1;
  sim::Transcript t2;
  util::BitBuffer a = bits_of(1, 4);
  util::BitBuffer b = bits_of(2, 4);
  t1.record(sim::PartyId::kAlice, a, "");
  t1.record(sim::PartyId::kAlice, b, "");
  t2.record(sim::PartyId::kAlice, b, "");
  t2.record(sim::PartyId::kAlice, a, "");
  EXPECT_NE(t1.digest(), t2.digest());
}

TEST(CostStats, Accumulates) {
  sim::CostStats a{10, 6, 4, 2, 2};
  const sim::CostStats b{5, 5, 0, 1, 1};
  a += b;
  EXPECT_EQ(a.bits_total, 15u);
  EXPECT_EQ(a.bits_from_alice, 11u);
  EXPECT_EQ(a.bits_from_bob, 4u);
  EXPECT_EQ(a.messages, 3u);
  EXPECT_EQ(a.rounds, 3u);
}

TEST(CostStats, EqualityAndToString) {
  const sim::CostStats a{20, 17, 3, 3, 3};
  const sim::CostStats b{20, 17, 3, 3, 3};
  sim::CostStats c = a;
  c.rounds = 4;
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.ToString(),
            "CostStats{bits=20 (alice 17, bob 3), messages=3, rounds=3}");
  std::ostringstream os;
  os << a;
  EXPECT_EQ(os.str(), a.ToString());
}

TEST(Transcript, EqualityAndToString) {
  sim::Transcript t1;
  sim::Transcript t2;
  t1.record(sim::PartyId::kAlice, bits_of(5, 4), "hello");
  t2.record(sim::PartyId::kAlice, bits_of(5, 4), "hello");
  EXPECT_EQ(t1, t2);
  t2.record(sim::PartyId::kBob, bits_of(1, 1), "");
  EXPECT_NE(t1, t2);
  const std::string text = t2.ToString();
  EXPECT_NE(text.find("2 messages"), std::string::npos);
  EXPECT_NE(text.find("hello"), std::string::npos);
  EXPECT_NE(text.find("alice"), std::string::npos);
  EXPECT_NE(text.find("bob"), std::string::npos);
}

TEST(SharedRandomness, BothPartiesDeriveIdenticalStreams) {
  sim::SharedRandomness alice_view(1234);
  sim::SharedRandomness bob_view(1234);
  util::Rng a = alice_view.stream("hash", 3, 7);
  util::Rng b = bob_view.stream("hash", 3, 7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SharedRandomness, StreamsAreLabelSeparated) {
  sim::SharedRandomness sr(1234);
  util::Rng a = sr.stream("x", 0, 0);
  util::Rng b = sr.stream("x", 1, 0);
  util::Rng c = sr.stream("y", 0, 0);
  EXPECT_NE(a.next(), b.next());
  EXPECT_NE(sr.stream("x", 0, 0).next(), c.next());
}

// ---------- Network ----------

TEST(Network, BillsBothEndpoints) {
  sim::Network net(4);
  sim::CostStats cost{100, 60, 40, 4, 4};
  net.bill_pairwise(0, 2, cost);
  EXPECT_EQ(net.player(0).bits_sent, 60u);
  EXPECT_EQ(net.player(0).bits_received, 40u);
  EXPECT_EQ(net.player(2).bits_sent, 40u);
  EXPECT_EQ(net.player(2).bits_received, 60u);
  EXPECT_EQ(net.player(1).bits_touched(), 0u);
  EXPECT_EQ(net.total_bits(), 100u);
  EXPECT_EQ(net.rounds(), 4u);
}

TEST(Network, BatchTakesMaxRounds) {
  sim::Network net(4);
  net.begin_batch();
  net.bill_pairwise_in_batch(0, 1, sim::CostStats{10, 10, 0, 2, 2});
  net.bill_pairwise_in_batch(2, 3, sim::CostStats{10, 10, 0, 7, 7});
  net.end_batch();
  EXPECT_EQ(net.rounds(), 7u);  // parallel conversations: max, not sum
  EXPECT_EQ(net.total_bits(), 20u);
}

TEST(Network, MaxAndAveragePlayerBits) {
  sim::Network net(2);
  net.bill_pairwise(0, 1, sim::CostStats{30, 20, 10, 2, 2});
  EXPECT_EQ(net.max_player_bits(), 30u);  // each touches all 30 bits
  EXPECT_DOUBLE_EQ(net.average_player_bits(), 30.0);
}

TEST(Network, RejectsBadIds) {
  sim::Network net(2);
  EXPECT_THROW(net.bill_pairwise(0, 0, {}), std::invalid_argument);
  EXPECT_THROW(net.bill_pairwise(0, 5, {}), std::invalid_argument);
  EXPECT_THROW(sim::Network(0), std::invalid_argument);
}

TEST(Network, BatchProtocolErrors) {
  sim::Network net(2);
  EXPECT_THROW(net.end_batch(), std::logic_error);
  EXPECT_THROW(net.bill_pairwise_in_batch(0, 1, {}), std::logic_error);
  net.begin_batch();
  EXPECT_THROW(net.begin_batch(), std::logic_error);
  net.end_batch();
}

}  // namespace
}  // namespace setint

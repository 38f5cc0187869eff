// Tests for the flight recorder (obs/recorder.h): ring wraparound keeps
// exactly the newest capacity() events with contiguous sequence numbers,
// labels truncate instead of allocating, incident() dumps parseable JSONL
// post-mortems under a bounded budget, the channel hooks record
// messages, faults, integrity failures and limit breaches end to end, and
// the facade marks the sessions tools/replay cannot rebuild.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/resource_limits.h"
#include "obs/json.h"
#include "obs/recorder.h"
#include "setint.h"
#include "sim/channel.h"
#include "sim/fault.h"
#include "util/bitio.h"
#include "util/rng.h"

namespace setint {
namespace {

using obs::FlightEvent;
using obs::FlightEventKind;
using obs::FlightRecorder;

util::BitBuffer bits_of(std::uint64_t v, unsigned w) {
  util::BitBuffer b;
  b.append_bits(v, w);
  return b;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

// ---------- ring behaviour ----------

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(1).capacity(), 8u);   // minimum
  EXPECT_EQ(FlightRecorder(8).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(10).capacity(), 16u);
  EXPECT_EQ(FlightRecorder(256).capacity(), 256u);
}

TEST(FlightRecorder, WraparoundKeepsNewestEvents) {
  FlightRecorder rec(8);
  const std::uint64_t total = 21;
  for (std::uint64_t i = 0; i < total; ++i) {
    rec.record(FlightEventKind::kMessage, "e" + std::to_string(i),
               static_cast<int>(i % 2), static_cast<std::uint64_t>(10 * i),
               100 * i);
  }
  EXPECT_EQ(rec.recorded(), total);
  EXPECT_EQ(rec.overwritten(), total - 8);

  const std::vector<FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint64_t seq = total - 8 + i;  // oldest-first, newest window
    EXPECT_EQ(events[i].sequence, seq);
    EXPECT_EQ(std::string(events[i].label), "e" + std::to_string(seq));
    EXPECT_EQ(events[i].bits, 10 * seq);
    EXPECT_EQ(events[i].bit_offset, 100 * seq);
  }
}

TEST(FlightRecorder, SnapshotBeforeWraparoundIsComplete) {
  FlightRecorder rec(64);
  rec.record(FlightEventKind::kRetry, "attempt 1");
  rec.record(FlightEventKind::kDegrade, "superset answer");
  const std::vector<FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kRetry);
  EXPECT_EQ(events[1].kind, FlightEventKind::kDegrade);
  EXPECT_EQ(rec.overwritten(), 0u);
}

TEST(FlightRecorder, LabelsTruncateWithoutAllocating) {
  FlightRecorder rec(8);
  const std::string longlabel(100, 'x');
  rec.record(FlightEventKind::kFault, longlabel);
  const std::vector<FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  const std::string stored(events[0].label);
  EXPECT_LT(stored.size(), FlightEvent::kLabelCapacity);
  EXPECT_EQ(stored, longlabel.substr(0, stored.size()));
}

TEST(FlightRecorder, KindNamesAreStable) {
  EXPECT_STREQ(obs::flight_event_kind_name(FlightEventKind::kMessage),
               "message");
  EXPECT_STREQ(obs::flight_event_kind_name(FlightEventKind::kIntegrityFailure),
               "integrity_failure");
  EXPECT_STREQ(obs::flight_event_kind_name(FlightEventKind::kIncident),
               "incident");
}

// ---------- JSONL dumps ----------

TEST(FlightRecorder, DumpJsonlIsParseableAndOrdered) {
  FlightRecorder rec(8);
  for (int i = 0; i < 12; ++i) {
    rec.record(FlightEventKind::kMessage, "m" + std::to_string(i));
  }
  std::ostringstream os;
  rec.dump_jsonl(os, "unit test");
  const std::vector<std::string> lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 1u + 8u);  // meta + newest window

  const obs::Json meta = obs::Json::parse(lines[0]);
  EXPECT_EQ(meta.find("kind")->as_string(), "meta");
  EXPECT_EQ(meta.find("reason")->as_string(), "unit test");
  EXPECT_EQ(meta.find("recorded")->number_or(-1), 12.0);
  EXPECT_EQ(meta.find("overwritten")->number_or(-1), 4.0);

  std::uint64_t prev_seq = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const obs::Json event = obs::Json::parse(lines[i]);
    const std::uint64_t seq =
        static_cast<std::uint64_t>(event.find("seq")->number_or(-1));
    if (i > 1) {
      EXPECT_EQ(seq, prev_seq + 1);  // chronological
    }
    prev_seq = seq;
    EXPECT_EQ(event.find("kind")->as_string(), "message");
  }
}

TEST(FlightRecorder, IncidentAutoDumpRespectsBudget) {
  FlightRecorder rec(8);
  const std::string prefix =
      testing::TempDir() + "/recorder_test_incident";
  rec.set_dump_path(prefix, /*max_dumps=*/2);
  rec.record(FlightEventKind::kMessage, "payload", 0, 16, 0);

  rec.incident("first");
  rec.incident("second");
  rec.incident("third");  // over budget: recorded, not dumped
  EXPECT_EQ(rec.incidents(), 3u);
  ASSERT_EQ(rec.dump_files().size(), 2u);

  std::ifstream in(rec.dump_files()[0]);
  ASSERT_TRUE(in.good()) << rec.dump_files()[0];
  std::stringstream ss;
  ss << in.rdbuf();
  const std::vector<std::string> lines = lines_of(ss.str());
  ASSERT_GE(lines.size(), 2u);
  const obs::Json meta = obs::Json::parse(lines[0]);
  EXPECT_EQ(meta.find("reason")->as_string(), "first");
  // The kIncident marker itself lands in the ring before the dump.
  const obs::Json last = obs::Json::parse(lines.back());
  EXPECT_EQ(last.find("kind")->as_string(), "incident");

  for (const std::string& f : rec.dump_files()) std::remove(f.c_str());
}

TEST(FlightRecorder, NoDumpPathMeansNoFiles) {
  FlightRecorder rec(8);
  rec.incident("nothing configured");
  EXPECT_EQ(rec.incidents(), 1u);
  EXPECT_TRUE(rec.dump_files().empty());
}

// ---------- channel integration ----------

TEST(FlightRecorder, ChannelRecordsMessagesWithOffsets) {
  FlightRecorder rec(64);
  sim::Channel ch;
  ch.set_recorder(&rec);
  ch.send(sim::PartyId::kAlice, bits_of(0b1011, 4), "probe");
  ch.send(sim::PartyId::kBob, bits_of(0xFF, 8), "reply");

  const std::vector<FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kMessage);
  EXPECT_EQ(std::string(events[0].label), "probe");
  EXPECT_EQ(events[0].bits, 4u);
  // bit_offset is the channel's bits_total at record time, i.e. with the
  // event's own payload already metered (recorder.h contract).
  EXPECT_EQ(events[0].bit_offset, 4u);
  EXPECT_EQ(events[0].party, 0);
  EXPECT_EQ(std::string(events[1].label), "reply");
  EXPECT_EQ(events[1].bits, 8u);
  EXPECT_EQ(events[1].bit_offset, 12u);
  EXPECT_EQ(events[1].party, 1);
}

TEST(FlightRecorder, ChannelIntegrityFailureFiresIncidentDump) {
  // drop_prob = 1: the first frame is lost in flight, the delivery-side
  // integrity check throws, and the recorder must hold the fault + the
  // integrity failure and write exactly one post-mortem.
  sim::FaultSpec spec;
  spec.drop_prob = 1.0;
  spec.seed = 7;
  sim::FaultPlan plan(spec);

  FlightRecorder rec(64);
  const std::string prefix = testing::TempDir() + "/recorder_test_channel";
  rec.set_dump_path(prefix, 4);

  sim::Channel ch;
  ch.set_recorder(&rec);
  ch.set_fault_plan(&plan);
  EXPECT_THROW(ch.send(sim::PartyId::kAlice, bits_of(0xABC, 12), "doomed"),
               sim::ChannelIntegrityError);

  bool saw_fault = false, saw_integrity = false;
  for (const FlightEvent& e : rec.snapshot()) {
    saw_fault |= e.kind == FlightEventKind::kFault;
    saw_integrity |= e.kind == FlightEventKind::kIntegrityFailure;
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(saw_integrity);
  ASSERT_EQ(rec.dump_files().size(), 1u);
  std::ifstream in(rec.dump_files()[0]);
  EXPECT_TRUE(in.good());
  for (const std::string& f : rec.dump_files()) std::remove(f.c_str());
}

TEST(FlightRecorder, ChannelLimitBreachIsRecorded) {
  core::ResourceLimits limits;
  limits.max_total_bits = 8;

  FlightRecorder rec(64);
  sim::Channel ch;
  ch.set_recorder(&rec);
  ch.set_limits(&limits);
  EXPECT_THROW(ch.send(sim::PartyId::kAlice, bits_of(0xFFFF, 16), "too big"),
               core::ResourceLimitError);

  bool saw_breach = false, saw_incident = false;
  for (const FlightEvent& e : rec.snapshot()) {
    saw_breach |= e.kind == FlightEventKind::kLimitBreach;
    saw_incident |= e.kind == FlightEventKind::kIncident;
  }
  EXPECT_TRUE(saw_breach);
  EXPECT_TRUE(saw_incident);
}

// ---------- replay context ----------

// A facade session whose fault plan carries a link overlay is recorded
// with the fault.overlays key, which tools/replay refuses: the context
// holds the plan's FaultSpec only, so a re-run would lack the overlay.
// Without an overlay the key is absent.
TEST(FlightRecorder, FacadeMarksOverlaySessionsNonReplayable) {
  const util::Set s{1, 5, 9, 12, 17};
  const util::Set t{5, 9, 20, 31};
  for (const bool overlay : {false, true}) {
    sim::FaultSpec spec;
    spec.seed = 3;
    sim::FaultPlan plan(spec);
    if (overlay) plan.set_link_faults(0, 1, sim::FaultSpec{});
    FlightRecorder rec(64);
    IntersectOptions options;
    options.universe = 32;
    options.seed = 11;
    options.fault_plan = &plan;
    options.recorder = &rec;
    const IntersectResult result = intersect(s, t, options);
    EXPECT_EQ(result.intersection, (util::Set{5, 9}));
    const auto& context = rec.context();
    const bool marked =
        std::find(context.begin(), context.end(),
                  std::pair<std::string, std::string>{"fault.overlays",
                                                      "1"}) != context.end();
    EXPECT_EQ(marked, overlay) << "overlay=" << overlay;
  }
}

}  // namespace
}  // namespace setint

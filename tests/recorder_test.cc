// Tests for the flight recorder (obs/recorder.h): ring wraparound keeps
// exactly the newest capacity() events with contiguous sequence numbers,
// labels truncate instead of allocating, incident() dumps parseable JSONL
// post-mortems under a bounded budget, the channel hooks record
// messages, faults, integrity failures and limit breaches end to end, and
// the replay context: random run specs round-trip through its codec, bad
// keys are refused by name, and the facade records overlays and marks the
// sessions tools/replay cannot rebuild.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/resource_limits.h"
#include "core/verification_tree.h"
#include "obs/json.h"
#include "obs/recorder.h"
#include "run_spec.h"
#include "setint.h"
#include "sim/channel.h"
#include "sim/chaos.h"
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
  limits.max_message_bits = 8;

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

// The replay context as a dump carries it: a JSON object of strings,
// through text.
obs::Json as_dump(const ReplayContext& context) {
  obs::Json object = obs::Json::object();
  for (const auto& [key, value] : context) object[key] = value;
  return obs::Json::parse(object.dump());
}

// A random valid spec, every block and list drawn present or absent.
RunSpec random_spec(util::Rng& rng) {
  const auto coin = [&] { return rng.below(2) == 1; };
  const auto prob = [&] { return coin() ? rng.unit() : 0.0; };
  RunSpec spec;
  const util::SetPair pair =
      util::random_set_pair(rng, 1u << 12, 1 + rng.below(20), rng.below(2));
  spec.s = pair.s;
  spec.t = pair.t;
  spec.seed = rng.next();
  spec.universe = 1u << 12;
  spec.rounds_r = static_cast<int>(rng.below(core::kMaxTreeStages + 1));
  spec.checkpoint = coin();
  spec.retry.max_attempts = rng.below(100);
  spec.retry.backoff_rounds = rng.below(100);
  spec.retry.backoff_multiplier = 1.0 + rng.unit();
  spec.retry.backoff_cap_rounds = rng.next();
  spec.retry.backoff_jitter = prob();
  spec.retry.degraded_attempts = rng.below(10);
  spec.retry.max_restarts = rng.below(10);
  spec.retry.max_resume_wait_rounds = rng.below(10000);
  if (coin()) {
    spec.budget.max_bits = rng.below(1u << 20);
    spec.budget.max_rounds = rng.below(1000);
    spec.budget.deadline_ticks = rng.below(1000);
    spec.budget.refuse_on_exhaustion = coin();
  }
  if (coin()) spec.limits = core::ResourceLimits::for_workload(1u << 12, 20);
  const auto iid = [&] {
    sim::FaultSpec f;
    f.flip_per_bit = prob();
    f.truncate_prob = prob();
    f.drop_prob = prob();
    f.duplicate_prob = prob();
    f.delay_prob = prob();
    f.delay_rounds = rng.below(8);
    f.seed = rng.next();
    return f;
  };
  if (coin()) {
    RunSpec::Faults& fault = spec.fault.emplace();
    fault.spec = iid();
    fault.spec.burst = {prob(), prob(), prob(), prob(), prob(), prob()};
    for (std::uint64_t i = rng.below(3); i > 0; --i) {
      const std::size_t a = rng.below(4);
      fault.overlays.push_back({a, a + 1 + rng.below(4), iid()});
    }
  }
  if (coin()) {
    RunSpec::Chaos& chaos = spec.chaos.emplace();
    chaos.spec.players = 2 + rng.below(4);
    chaos.spec.seed = rng.next();
    chaos.protocol_seed = rng.next();
    chaos.spec.crash = {prob(), rng.below(16), rng.next()};
    for (std::uint64_t i = rng.below(3); i > 0; --i) {
      chaos.spec.crash_overrides.emplace_back(
          rng.below(4), sim::CrashSchedule{prob(), rng.below(16), rng.next()});
    }
    for (std::uint64_t i = rng.below(3); i > 0; --i) {
      const std::uint64_t start = rng.below(100);
      chaos.spec.partitions.push_back(
          {coin() ? sim::kAllLinks : rng.below(4), rng.below(4), start,
           start + rng.below(100)});
    }
  }
  if (coin()) spec.non_replayable = "adversary";
  return spec;
}

TEST(RunSpec, RandomSpecsRoundTripExactly) {
  util::Rng rng(0x5BEC);
  for (int i = 0; i < 500; ++i) {
    const RunSpec spec = random_spec(rng);
    EXPECT_EQ(parse_context(as_dump(to_context(spec))), spec) << "spec " << i;
  }
}

// Each refusal names its key.
void expect_refused(const obs::Json& context, const std::string& key) {
  try {
    (void)parse_context(context);
    ADD_FAILURE() << "accepted a bad " << key;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
        << e.what();
  }
}

// A spec that writes every key.
RunSpec full_spec() {
  RunSpec spec;
  spec.s = {1, 2};
  spec.t = {2, 3};
  spec.budget.max_bits = 1000;
  spec.budget.max_rounds = 10;
  spec.limits.max_decoded_items = 10;
  spec.fault.emplace().overlays.push_back({});
  spec.chaos.emplace().spec.crash_overrides.emplace_back(1,
                                                         sim::CrashSchedule{});
  spec.chaos->spec.partitions.push_back({});
  spec.non_replayable = "adversary";
  return spec;
}

TEST(RunSpec, BadValuesAreRefusedByKey) {
  const ReplayContext context = to_context(full_spec());
  ASSERT_EQ(context.size(), 39u);
  for (std::size_t i = 0; i < context.size(); ++i) {
    const std::string& key = context[i].first;
    ReplayContext bad = context;
    // Any string is a well-formed reason.
    if (key != "non_replayable") {
      bad[i].second = "x";
      expect_refused(as_dump(bad), key);
    }
    obs::Json numeric = as_dump(context);
    numeric[key] = std::uint64_t{1};
    expect_refused(numeric, key);
  }
  for (const char* key : {"kind", "seed", "universe", "s", "t"}) {
    ReplayContext missing;
    for (const auto& entry : context) {
      if (entry.first != key) missing.push_back(entry);
    }
    expect_refused(as_dump(missing), key);
  }
  for (const auto& [key, value] :
       {std::pair{"chaos.burst", "0.1,0.05,0,0.9,0,0"},
        std::pair{"limits.max_total_bits", "100"},
        std::pair{"limits.max_rounds", "10"}}) {
    ReplayContext unknown = context;
    unknown.emplace_back(key, value);
    expect_refused(as_dump(unknown), key);
  }
}

// A facade session records its fault plan's link overlays, so its dump
// rebuilds the same plan; without an overlay the key is absent.
TEST(FlightRecorder, FacadeRecordsFaultPlanOverlays) {
  const util::Set s{1, 5, 9, 12, 17};
  const util::Set t{5, 9, 20, 31};
  for (const bool overlay : {false, true}) {
    sim::FaultSpec spec;
    spec.seed = 3;
    sim::FaultPlan plan(spec);
    sim::FaultSpec lossy;
    lossy.drop_prob = 0.25;
    if (overlay) plan.set_link_faults(1, 0, lossy);
    FlightRecorder rec(64);
    IntersectOptions options;
    options.universe = 32;
    options.seed = 11;
    options.fault_plan = &plan;
    options.recorder = &rec;
    const IntersectResult result = intersect(s, t, options);
    EXPECT_EQ(result.intersection, (util::Set{5, 9}));
    const RunSpec recorded = parse_context(as_dump(rec.context()));
    ASSERT_TRUE(recorded.fault.has_value());
    EXPECT_EQ(recorded.fault->overlays, plan.overlays());
    EXPECT_EQ(recorded.fault->overlays.size(), overlay ? 1u : 0u);
    EXPECT_TRUE(recorded.non_replayable.empty());
  }
}

// A plan that has already carried traffic is in a state no spec
// describes, so the session is marked non-replayable.
std::string non_replayable_of(const IntersectOptions& options) {
  FlightRecorder rec(64);
  IntersectOptions recorded = options;
  recorded.recorder = &rec;
  (void)intersect(util::Set{1, 5, 9}, util::Set{5, 9, 20}, recorded);
  return parse_context(as_dump(rec.context())).non_replayable;
}

TEST(FlightRecorder, FacadeMarksReusedFaultPlanNonReplayable) {
  sim::FaultSpec spec;
  spec.flip_per_bit = 1e-3;
  sim::FaultPlan plan(spec);
  IntersectOptions options;
  options.universe = 32;
  options.fault_plan = &plan;
  EXPECT_EQ(non_replayable_of(options), "");
  ASSERT_GT(plan.stats().messages_seen, 0u);
  EXPECT_EQ(non_replayable_of(options), "fault plan reused");
}

// A recorder handed to a second session still holds the first one's ring,
// incident count and digest, so that session is marked non-replayable;
// its context is the second session's alone.
TEST(FlightRecorder, FacadeMarksReusedRecorderNonReplayable) {
  FlightRecorder rec(64);
  IntersectOptions options;
  options.universe = 32;
  options.recorder = &rec;
  (void)intersect(util::Set{1, 5, 9}, util::Set{5, 9, 20}, options);
  EXPECT_EQ(parse_context(as_dump(rec.context())).non_replayable, "");
  ASSERT_GT(rec.recorded(), 0u);
  (void)intersect(util::Set{1, 5, 9}, util::Set{5, 9, 20}, options);
  EXPECT_EQ(parse_context(as_dump(rec.context())).non_replayable,
            "recorder reused");
}

// The facade replaces a reused recorder's whole context: no fault.* key
// of a first, faulted session survives into a clean second one.
TEST(FlightRecorder, FacadeReplacesTheWholeContext) {
  const util::Set s{1, 5, 9};
  const util::Set t{5, 9, 20};
  FlightRecorder rec(64);
  sim::FaultSpec spec;
  spec.flip_per_bit = 1e-3;
  sim::FaultPlan plan(spec);
  IntersectOptions faulted;
  faulted.universe = 32;
  faulted.fault_plan = &plan;
  faulted.recorder = &rec;
  (void)intersect(s, t, faulted);
  const auto has_fault_key = [&] {
    return std::ranges::any_of(rec.context(), [](const auto& kv) {
      return kv.first.starts_with("fault.");
    });
  };
  ASSERT_TRUE(has_fault_key());
  IntersectOptions clean;
  clean.universe = 32;
  clean.seed = 3;
  clean.recorder = &rec;
  const RunSpec before = run_spec_of(s, t, 32, clean);
  (void)intersect(s, t, clean);
  EXPECT_FALSE(has_fault_key());
  RunSpec want = before;
  want.non_replayable = "recorder reused";
  EXPECT_EQ(rec.context(), to_context(want));
  EXPECT_EQ(parse_context(as_dump(rec.context())), want);
}

TEST(FlightRecorder, FacadeMarksReusedChaosPlanNonReplayable) {
  sim::ChaosPlan plan(sim::ChaosSpec{}, 7);
  IntersectOptions options;
  options.universe = 32;
  options.chaos_plan = &plan;
  plan.advance_to(18);
  EXPECT_EQ(non_replayable_of(options), "chaos plan reused");
}

}  // namespace
}  // namespace setint

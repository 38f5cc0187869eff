// replay — deterministic incident replay for flight-recorder dumps
// (docs/ROBUSTNESS.md § incident replay workflow).
//
//   replay --record=<prefix> --scenario=<name> [--seed=<u64>]
//   replay <dump.jsonl>
//
// Record mode runs one canned session known to raise an incident — each
// scenario (integrity, burst, overlay, crash, partition, degrade,
// overload) a setint::RunSpec — with the flight recorder dumping under
// <prefix>, and prints the dump it produced. --seed draws the inputs and
// the fault or chaos plan's seed; a scenario steps that plan seed up until
// its session delivers messages before the incident. Replay mode is parse, run,
// compare: setint::parse_context rebuilds the spec from the dump's context
// block, setint::run re-executes it into a fresh scratch directory, and
// the dump that re-run wrote at the same incident index must match the
// original's transcript digest and bytes. Any incident the sim stack
// produces is thus reproducible from its post-mortem alone.
//
// Exit codes: 0 = replay matched (or record mode produced a dump),
// 1 = replay diverged, 2 = usage error or unusable dump: malformed JSON,
// no context, a context key unknown, malformed, non-string or missing, or
// a non_replayable session (an adversary, or a reused fault plan, chaos
// plan or flight recorder).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

#include "obs/json.h"
#include "obs/recorder.h"
#include "run_spec.h"
#include "sim/chaos.h"
#include "util/parse.h"
#include "util/rng.h"

namespace {

namespace fs = std::filesystem;
using setint::RunSpec;
using setint::obs::Json;

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "replay: %s\n", msg);
  std::fprintf(stderr,
               "usage: replay --record=<prefix> --scenario=<name> "
               "[--seed=<u64>]\n"
               "       replay <dump.jsonl>\n"
               "scenarios: integrity, burst, overlay, crash, partition, "
               "degrade, overload\n");
  std::exit(2);
}

// --------------------------------------------------------------------
// Record mode: canned incident-raising sessions.

// The send (1-based) at which a two-party session under `spec` first
// meets a crash, or 0 if none of its first `horizon` sends does. Each
// send is one tick of the plan, so this is the session's own crash.
std::uint64_t crash_tick(const setint::sim::ChaosSpec& spec,
                         std::uint64_t protocol_seed, std::uint64_t horizon) {
  setint::sim::ChaosPlan plan(spec, protocol_seed);
  for (std::uint64_t tick = 1; tick <= horizon; ++tick) {
    try {
      plan.on_send_attempt(0, 1);
    } catch (const setint::sim::PlayerCrashError&) {
      return tick;
    }
  }
  return 0;
}

std::string read_file(const std::string& path) {
  std::ostringstream text;
  text << std::ifstream(path).rdbuf();
  return text.str();
}

// Removes a scratch directory, whatever the exit path.
struct RemoveOnExit {
  explicit RemoveOnExit(fs::path p) : path(std::move(p)) {}
  ~RemoveOnExit() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  RemoveOnExit(const RemoveOnExit&) = delete;
  RemoveOnExit& operator=(const RemoveOnExit&) = delete;
  fs::path path;
};

// A fresh scratch directory under $TMPDIR, named like `pattern`.
std::string make_scratch_dir(const char* pattern) {
  std::string dir = (fs::temp_directory_path() / pattern).string();
  if (mkdtemp(dir.data()) == nullptr) {
    throw std::runtime_error("cannot create a directory like " + dir);
  }
  return dir;
}

// Deliveries a session under `spec` makes before its first incident, read
// from the dump a trial run writes into a scratch directory; a session
// that raises none counts as delivering.
std::uint64_t deliveries_before_incident(const RunSpec& spec) {
  const RemoveOnExit scratch(make_scratch_dir("setint_trial_XXXXXX"));
  setint::obs::FlightRecorder rec(/*capacity=*/256);
  rec.set_dump_path((scratch.path / "trial").string(), /*max_dumps=*/1);
  (void)setint::run(spec, &rec);
  if (rec.dump_files().empty()) return 1;
  const std::string dump = read_file(rec.dump_files().front());
  const Json meta = Json::parse(dump.substr(0, dump.find('\n')));
  const Json* deliveries = meta.find("deliveries");
  return deliveries == nullptr
             ? 0
             : static_cast<std::uint64_t>(deliveries->number_or(0));
}

RunSpec make_scenario(const std::string& name, std::uint64_t seed) {
  RunSpec spec;
  setint::util::Rng rng(setint::util::mix64(seed, 0x5EED));
  const setint::util::SetPair pair = setint::util::random_set_pair(
      rng, /*universe=*/std::uint64_t{1} << 16, /*k=*/48, /*shared=*/16);
  spec.s = pair.s;
  spec.t = pair.t;
  spec.universe = std::uint64_t{1} << 16;
  spec.seed = seed;
  // Fault draws vary with --seed too, not only the inputs.
  const std::uint64_t fault_seed = setint::util::mix64(seed, 0xFA17);
  if (name == "integrity") {
    // Aggressive bit flips: the link corrects single flips, so the rate
    // puts several in a typical frame; one stays damaged through every
    // link-level resend, and the channel raises an integrity incident when
    // it abandons the frame.
    setint::sim::FaultSpec& flips = spec.fault.emplace().spec;
    flips.flip_per_bit = 1.5e-2;
    flips.seed = fault_seed;
  } else if (name == "burst") {
    // A Gilbert-Elliott link that, once bad, stays bad for ~20 frames and
    // drops most of them: a frame dropped on every resend is abandoned
    // and the integrity incident fires.
    spec.fault.emplace().spec.seed = fault_seed;
    setint::sim::GilbertElliott& burst = spec.fault->spec.burst;
    burst.p_good_to_bad = 0.1;
    burst.p_bad_to_good = 0.05;
    burst.loss_bad = 0.9;
  } else if (name == "overlay") {
    // A clean plan whose one link {0, 1} carries an overlay dropping half
    // the frames: some frames get through, then one dropped on every
    // resend is abandoned.
    setint::sim::LinkFaults lossy;
    lossy.spec.drop_prob = 0.5;
    spec.fault.emplace().spec.seed = fault_seed;
    spec.fault->overlays.push_back(lossy);
  } else if (name == "crash") {
    // Peer dies for good at a random send (one in five): recovery declares
    // it lost and the degradation incident fires. The chaos seed is the
    // first whose crash falls on send 3..12, so at every --seed the
    // session delivers messages before the crash and the dump pins them.
    setint::sim::CrashSchedule dead;
    dead.crash_prob = 0.2;
    dead.max_crashes = 0;
    spec.chaos.emplace().spec.crash_overrides.emplace_back(1, dead);
    spec.chaos->protocol_seed = seed;
    while (crash_tick(spec.chaos->spec, seed, 12) < 3) {
      spec.chaos->spec.seed += 1;
    }
  } else if (name == "partition") {
    // The link partitions early for longer than the resume-wait budget.
    setint::sim::PartitionWindow w;
    w.start_tick = 4;
    w.end_tick = 4 + (std::uint64_t{1} << 16);
    spec.chaos.emplace().spec.partitions.push_back(w);
    spec.chaos->protocol_seed = seed;
  } else if (name == "degrade") {
    // Bruising flip rate + a tiny retry budget: the session exhausts its
    // attempts and degrades. The rate lets a few frames through first.
    setint::sim::FaultSpec& flips = spec.fault.emplace().spec;
    flips.flip_per_bit = 1.2e-2;
    flips.seed = fault_seed;
    spec.retry.max_attempts = 2;
    spec.retry.degraded_attempts = 2;
  } else if (name == "overload") {
    // A bit budget far below the protocol's cost: the channel refuses
    // the first send past it and the session descends the degradation
    // ladder (core/budget.h), firing the budget-exhausted incident.
    spec.budget.max_bits = 64;
  } else {
    usage("unknown scenario");
  }
  // A fault plan's seed is the first, counting up from the one --seed
  // derives, under which the session delivers messages before its
  // incident, so the dump pins them (as crash chooses its chaos seed).
  while (spec.fault && deliveries_before_incident(spec) == 0) {
    spec.fault->spec.seed += 1;
  }
  return spec;
}

int record_mode(const std::string& prefix, const std::string& scenario,
                std::uint64_t seed) {
  setint::obs::FlightRecorder rec(/*capacity=*/256);
  rec.set_dump_path(prefix, /*max_dumps=*/8);
  (void)setint::run(make_scenario(scenario, seed), &rec);
  if (rec.dump_files().empty()) {
    // The scenario got lucky and raised nothing; still produce a
    // replayable post-mortem of the clean session.
    rec.incident("recorded session (no incident fired)");
  }
  if (rec.dump_files().empty()) {
    std::fprintf(stderr, "replay: failed to write a dump under %s\n",
                 prefix.c_str());
    return 2;
  }
  std::printf("%s\n", rec.dump_files().front().c_str());
  return 0;
}

// --------------------------------------------------------------------
// Replay mode: parse, run, compare.

int replay_mode(const std::string& dump_path) {
  const std::string original = read_file(dump_path);
  if (original.empty()) {
    std::fprintf(stderr, "replay: %s is empty or unreadable\n",
                 dump_path.c_str());
    return 2;
  }
  const Json meta = Json::parse(original.substr(0, original.find('\n')));
  const Json* context = meta.find("context");
  const Json* digest = meta.find("transcript_digest");
  const Json* incidents = meta.find("incidents");
  if (context == nullptr || digest == nullptr || !digest->is_string() ||
      incidents == nullptr) {
    std::fprintf(stderr,
                 "replay: meta line lacks a replay context, transcript "
                 "digest or incident count (not a facade session dump)\n");
    return 2;
  }
  const RunSpec spec = setint::parse_context(*context);
  if (!spec.non_replayable.empty()) {
    std::fprintf(stderr,
                 "replay: session is recorded but not replayable "
                 "(non_replayable: %s)\n",
                 spec.non_replayable.c_str());
    return 2;
  }

  // Re-run into a fresh directory of its own, so the comparison reads
  // only the dump this re-run wrote at the SAME incident index.
  const std::string dir = make_scratch_dir("setint_replay_XXXXXX");
  const RemoveOnExit scratch(dir);
  setint::obs::FlightRecorder rec(/*capacity=*/256);
  rec.set_dump_path(dir + "/replay", /*max_dumps=*/8);
  (void)setint::run(spec, &rec);
  const Json* reason = meta.find("reason");
  if (rec.dump_files().empty() && reason != nullptr && reason->is_string() &&
      reason->as_string().starts_with("recorded session")) {
    // The original dump was forced post-run by record mode; do the same.
    rec.incident(reason->as_string());
  }
  const auto index = static_cast<std::uint64_t>(incidents->number_or(0));
  const std::string wanted =
      dir + "/replay." + std::to_string(index) + ".jsonl";
  if (std::ranges::find(rec.dump_files(), wanted) == rec.dump_files().end()) {
    std::fprintf(stderr,
                 "replay: DIVERGED — re-run raised %llu incident(s), "
                 "expected at least %llu\n",
                 static_cast<unsigned long long>(rec.incidents()),
                 static_cast<unsigned long long>(index));
    return 1;
  }
  const std::string regenerated = read_file(wanted);
  const Json regen_meta =
      Json::parse(regenerated.substr(0, regenerated.find('\n')));
  const Json* regen_digest = regen_meta.find("transcript_digest");
  const std::string want = digest->as_string();
  const std::string got = regen_digest != nullptr && regen_digest->is_string()
                              ? regen_digest->as_string()
                              : "<missing>";
  if (got != want) {
    std::fprintf(stderr,
                 "replay: DIVERGED — transcript digest %s, recorded %s\n",
                 got.c_str(), want.c_str());
    return 1;
  }
  // Digest matched; the whole regenerated dump should be byte-identical.
  if (regenerated != original) {
    std::fprintf(stderr,
                 "replay: DIVERGED — digest matches but dump bytes differ\n");
    return 1;
  }
  std::printf("replay: OK — transcript digest %s reproduced bit-for-bit "
              "(%zu bytes)\n",
              want.c_str(), original.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string record_prefix;
  std::string scenario;
  std::string dump;
  std::uint64_t seed = 0x5e71;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--record=", 0) == 0) {
      record_prefix = arg.substr(9);
    } else if (arg.rfind("--scenario=", 0) == 0) {
      scenario = arg.substr(11);
    } else if (arg.rfind("--seed=", 0) == 0) {
      try {
        seed = setint::util::parse_number<std::uint64_t>("--seed",
                                                         arg.substr(7));
      } catch (const std::exception& e) {
        usage(e.what());
      }
    } else if (!arg.empty() && arg[0] != '-') {
      if (!dump.empty()) usage("more than one dump file");
      dump = arg;
    } else {
      usage(("unknown flag: " + arg).c_str());
    }
  }
  if (!record_prefix.empty()) {
    if (scenario.empty()) usage("--record needs --scenario");
    if (!dump.empty()) usage("--record and a dump file are exclusive");
    return record_mode(record_prefix, scenario, seed);
  }
  if (dump.empty()) usage(nullptr);
  try {
    return replay_mode(dump);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replay: %s\n", e.what());
    return 2;
  }
}

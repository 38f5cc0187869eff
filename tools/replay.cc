// replay — deterministic incident replay for flight-recorder dumps
// (docs/ROBUSTNESS.md § replay workflow).
//
//   replay --record=<prefix> --scenario=<name> [--seed=<u64>]
//   replay <dump.jsonl>
//
// Record mode runs one canned facade session whose configuration is known
// to raise an incident (scenarios: integrity, burst, crash, partition,
// degrade, overload) with the flight recorder's dump path set to
// <prefix>; it prints the JSONL post-mortem file it produced. Every
// facade session stamps its full
// configuration — seeds, inputs, retry policy, fault and chaos specs —
// into the recorder's context block, so the dump is self-describing.
//
// Replay mode parses a dump's meta line, rebuilds the exact session from
// the embedded context, re-executes it with a fresh recorder dumping into
// a scratch directory, and asserts that the re-run raises its incident at
// the same point with a bit-for-bit identical transcript digest (and that
// the regenerated dump matches the original byte-for-byte). This is the
// contract bench/exp_chaos and the chaos CI lane rely on: any incident the
// sim stack produces can be reproduced exactly from its post-mortem alone.
//
// Exit codes: 0 = replay matched (or record mode produced a dump),
// 1 = replay diverged, 2 = usage error or non-replayable dump (no context,
// adversary session, malformed JSON).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/recorder.h"
#include "setint.h"
#include "sim/chaos.h"
#include "sim/fault.h"
#include "util/parse.h"
#include "util/set_util.h"

namespace {

namespace fs = std::filesystem;
using setint::obs::Json;

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "replay: %s\n", msg);
  std::fprintf(stderr,
               "usage: replay --record=<prefix> --scenario=<name> "
               "[--seed=<u64>]\n"
               "       replay <dump.jsonl>\n"
               "scenarios: integrity, burst, crash, partition, degrade, "
               "overload\n");
  std::exit(2);
}

// A flag value or dump field parsed whole; `what` names it in the error.
std::uint64_t parse_u64(const std::string& what, const std::string& s) {
  return setint::util::parse_number<std::uint64_t>(what, s);
}

double parse_double(const std::string& what, const std::string& s) {
  return setint::util::parse_number<double>(what, s);
}

setint::util::Set parse_set(const std::string& what, const std::string& csv) {
  setint::util::Set out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    out.push_back(parse_u64(what, csv.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return out;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t next = s.find(sep, pos);
    if (next == std::string::npos) next = s.size();
    out.push_back(s.substr(pos, next - pos));
    pos = next + 1;
  }
  return out;
}

// --------------------------------------------------------------------
// Record mode: canned incident-raising sessions.

struct Scenario {
  setint::util::Set s;
  setint::util::Set t;
  setint::IntersectOptions options;  // chaos/fault pointers patched below
  std::optional<setint::sim::FaultSpec> fault;
  std::optional<setint::sim::ChaosSpec> chaos;
};

Scenario make_scenario(const std::string& name, std::uint64_t seed) {
  Scenario sc;
  setint::util::Rng rng(setint::util::mix64(seed, 0x5EED));
  const setint::util::SetPair pair = setint::util::random_set_pair(
      rng, /*universe=*/std::uint64_t{1} << 16, /*k=*/48, /*shared=*/16);
  sc.s = pair.s;
  sc.t = pair.t;
  sc.options.universe = std::uint64_t{1} << 16;
  sc.options.seed = seed;
  if (name == "integrity") {
    // Aggressive bit flips: the link corrects single flips, so the rate
    // puts several in a typical frame; one stays damaged through every
    // link-level resend, and the channel raises an integrity incident when
    // it abandons the frame.
    setint::sim::FaultSpec spec;
    spec.flip_per_bit = 1.5e-2;
    sc.fault = spec;
  } else if (name == "burst") {
    // A Gilbert-Elliott link that, once bad, stays bad for ~20 frames and
    // drops most of them: a frame dropped on every resend is abandoned
    // and the integrity incident fires.
    setint::sim::FaultSpec spec;
    spec.burst.p_good_to_bad = 0.1;
    spec.burst.p_bad_to_good = 0.05;
    spec.burst.loss_bad = 0.9;
    sc.fault = spec;
  } else if (name == "crash") {
    // Peer dies on first contact: recovery declares it lost and the
    // degradation incident fires.
    setint::sim::ChaosSpec spec;
    setint::sim::CrashSchedule dead;
    dead.crash_prob = 1.0;
    dead.max_crashes = 0;
    spec.crash_overrides.emplace_back(1, dead);
    sc.chaos = spec;
  } else if (name == "partition") {
    // The link partitions early for longer than the resume-wait budget.
    setint::sim::ChaosSpec spec;
    setint::sim::PartitionWindow w;
    w.a = 0;
    w.b = 1;
    w.start_tick = 4;
    w.end_tick = 4 + (std::uint64_t{1} << 16);
    spec.partitions.push_back(w);
    sc.chaos = spec;
  } else if (name == "degrade") {
    // Bruising flip rate + a tiny retry budget: the session exhausts its
    // attempts and degrades.
    setint::sim::FaultSpec spec;
    spec.flip_per_bit = 2e-2;
    sc.fault = spec;
    sc.options.retry.max_attempts = 2;
    sc.options.retry.degraded_attempts = 2;
  } else if (name == "overload") {
    // A bit budget far below the protocol's cost: the first phase
    // boundary trips it and the session descends the degradation ladder
    // (core/budget.h), firing the budget-exhausted incident.
    sc.options.budget.max_bits = 64;
  } else {
    usage("unknown scenario");
  }
  return sc;
}

// Runs one scenario session with the recorder dumping under `prefix`.
// Returns the recorder so callers can inspect digest + dump files.
std::unique_ptr<setint::obs::FlightRecorder> run_session(
    Scenario& sc, const std::string& prefix) {
  auto rec = std::make_unique<setint::obs::FlightRecorder>(/*capacity=*/256);
  rec->set_dump_path(prefix, /*max_dumps=*/8);
  std::unique_ptr<setint::sim::FaultPlan> fault_plan;
  if (sc.fault) fault_plan = std::make_unique<setint::sim::FaultPlan>(*sc.fault);
  std::unique_ptr<setint::sim::ChaosPlan> chaos_plan;
  if (sc.chaos) {
    chaos_plan = std::make_unique<setint::sim::ChaosPlan>(*sc.chaos,
                                                          sc.options.seed);
  }
  sc.options.recorder = rec.get();
  sc.options.fault_plan = fault_plan.get();
  sc.options.chaos_plan = chaos_plan.get();
  (void)setint::intersect(sc.s, sc.t, sc.options);
  return rec;
}

int record_mode(const std::string& prefix, const std::string& scenario,
                std::uint64_t seed) {
  Scenario sc = make_scenario(scenario, seed);
  auto rec = run_session(sc, prefix);
  if (rec->dump_files().empty()) {
    // The scenario got lucky and raised nothing; still produce a
    // replayable post-mortem of the clean session.
    rec->incident("recorded session (no incident fired)");
  }
  if (rec->dump_files().empty()) {
    std::fprintf(stderr, "replay: failed to write a dump under %s\n",
                 prefix.c_str());
    return 2;
  }
  std::printf("%s\n", rec->dump_files().front().c_str());
  return 0;
}

// --------------------------------------------------------------------
// Replay mode.

std::string context_value(const Json& ctx, const char* key,
                          const std::string& fallback = "") {
  const Json* v = ctx.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : fallback;
}

bool has_key(const Json& ctx, const char* key) {
  return ctx.find(key) != nullptr;
}

std::uint64_t u64_field(const Json& ctx, const char* key,
                        const std::string& fallback) {
  return parse_u64(key, context_value(ctx, key, fallback));
}

double double_field(const Json& ctx, const char* key,
                    const std::string& fallback) {
  return parse_double(key, context_value(ctx, key, fallback));
}

int replay_mode(const std::string& dump_path) {
  std::ifstream in(dump_path);
  if (!in) {
    std::fprintf(stderr, "replay: cannot read %s\n", dump_path.c_str());
    return 2;
  }
  std::string meta_line;
  if (!std::getline(in, meta_line)) {
    std::fprintf(stderr, "replay: %s is empty\n", dump_path.c_str());
    return 2;
  }
  Json meta;
  try {
    meta = Json::parse(meta_line);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replay: bad meta line: %s\n", e.what());
    return 2;
  }
  const Json* ctx_ptr = meta.find("context");
  if (ctx_ptr == nullptr || !ctx_ptr->is_object()) {
    std::fprintf(stderr,
                 "replay: dump has no replay context (pre-chaos recorder, or "
                 "a non-facade session)\n");
    return 2;
  }
  const Json& ctx = *ctx_ptr;
  if (context_value(ctx, "kind") != "two_party") {
    std::fprintf(stderr, "replay: unsupported session kind\n");
    return 2;
  }
  if (has_key(ctx, "adversary")) {
    std::fprintf(stderr,
                 "replay: adversary sessions are recorded but not "
                 "replayable (crafted frames depend on live state)\n");
    return 2;
  }
  if (has_key(ctx, "chaos.burst")) {
    // Bursts moved to the fault plan (fault.burst); replaying such a dump
    // without its burst would report a divergence that is not one.
    std::fprintf(stderr,
                 "replay: chaos.burst is from a pre-fault-plan dump\n");
    return 2;
  }
  const Json* digest = meta.find("transcript_digest");
  const Json* incidents = meta.find("incidents");
  if (digest == nullptr || !digest->is_string() || incidents == nullptr) {
    std::fprintf(stderr, "replay: meta line lacks digest/incident count\n");
    return 2;
  }

  // Rebuild the session from the context block.
  const setint::util::Set s = parse_set("s", context_value(ctx, "s"));
  const setint::util::Set t = parse_set("t", context_value(ctx, "t"));
  setint::IntersectOptions options;
  options.seed = u64_field(ctx, "seed", "0");
  options.universe = u64_field(ctx, "universe", "0");
  options.rounds_r = setint::util::parse_number<int>(
      "rounds_r", context_value(ctx, "rounds_r", "0"));
  options.checkpoint = context_value(ctx, "checkpoint", "1") == "1";
  options.retry.max_attempts = u64_field(ctx, "retry.max_attempts", "40");
  options.retry.backoff_rounds = u64_field(ctx, "retry.backoff_rounds", "0");
  options.retry.backoff_multiplier =
      double_field(ctx, "retry.backoff_multiplier", "1");
  options.retry.backoff_cap_rounds =
      u64_field(ctx, "retry.backoff_cap_rounds", "4096");
  options.retry.backoff_jitter = double_field(ctx, "retry.backoff_jitter", "0");
  options.retry.degraded_attempts =
      u64_field(ctx, "retry.degraded_attempts", "4");
  options.retry.max_restarts = u64_field(ctx, "retry.max_restarts", "16");
  options.retry.max_resume_wait_rounds =
      u64_field(ctx, "retry.max_resume_wait_rounds", "4096");
  if (has_key(ctx, "budget.max_bits")) {
    options.budget.max_bits = u64_field(ctx, "budget.max_bits", "0");
    options.budget.max_rounds = u64_field(ctx, "budget.max_rounds", "0");
    options.budget.deadline_ticks =
        u64_field(ctx, "budget.deadline_ticks", "0");
    options.budget.refuse_on_exhaustion =
        context_value(ctx, "budget.refuse_on_exhaustion", "0") == "1";
  }
  if (has_key(ctx, "limits.max_total_bits")) {
    options.limits.max_message_bits =
        u64_field(ctx, "limits.max_message_bits", "0");
    options.limits.max_total_bits =
        u64_field(ctx, "limits.max_total_bits", "0");
    options.limits.max_rounds = u64_field(ctx, "limits.max_rounds", "0");
    options.limits.max_decoded_items =
        u64_field(ctx, "limits.max_decoded_items", "0");
  }
  std::unique_ptr<setint::sim::FaultPlan> fault_plan;
  if (has_key(ctx, "fault.seed")) {
    setint::sim::FaultSpec spec;
    spec.flip_per_bit = double_field(ctx, "fault.flip_per_bit", "0");
    spec.truncate_prob = double_field(ctx, "fault.truncate_prob", "0");
    spec.drop_prob = double_field(ctx, "fault.drop_prob", "0");
    spec.duplicate_prob = double_field(ctx, "fault.duplicate_prob", "0");
    spec.delay_prob = double_field(ctx, "fault.delay_prob", "0");
    spec.delay_rounds = u64_field(ctx, "fault.delay_rounds", "1");
    if (has_key(ctx, "fault.burst")) {
      const std::vector<std::string> parts =
          split(context_value(ctx, "fault.burst"), ',');
      if (parts.size() != 6) {
        std::fprintf(stderr, "replay: malformed fault.burst\n");
        return 2;
      }
      spec.burst.p_good_to_bad = parse_double("fault.burst", parts[0]);
      spec.burst.p_bad_to_good = parse_double("fault.burst", parts[1]);
      spec.burst.loss_good = parse_double("fault.burst", parts[2]);
      spec.burst.loss_bad = parse_double("fault.burst", parts[3]);
      spec.burst.flip_good = parse_double("fault.burst", parts[4]);
      spec.burst.flip_bad = parse_double("fault.burst", parts[5]);
    }
    spec.seed = u64_field(ctx, "fault.seed", "0");
    fault_plan = std::make_unique<setint::sim::FaultPlan>(spec);
    options.fault_plan = fault_plan.get();
  }
  std::unique_ptr<setint::sim::ChaosPlan> chaos_plan;
  if (has_key(ctx, "chaos.seed")) {
    setint::sim::ChaosSpec spec;
    spec.players = u64_field(ctx, "chaos.players", "2");
    spec.seed = u64_field(ctx, "chaos.seed", "0");
    spec.crash.crash_prob = double_field(ctx, "chaos.crash_prob", "0");
    spec.crash.restart_ticks = u64_field(ctx, "chaos.restart_ticks", "4");
    spec.crash.max_crashes =
        u64_field(ctx, "chaos.max_crashes",
                  std::to_string(setint::sim::kUnlimitedCrashes));
    for (const std::string& field :
         split(context_value(ctx, "chaos.overrides"), ';')) {
      if (field.empty()) continue;
      const std::vector<std::string> parts = split(field, ':');
      if (parts.size() != 4) {
        std::fprintf(stderr, "replay: malformed chaos.overrides\n");
        return 2;
      }
      setint::sim::CrashSchedule sched;
      sched.crash_prob = parse_double("chaos.overrides", parts[1]);
      sched.restart_ticks = parse_u64("chaos.overrides", parts[2]);
      sched.max_crashes = parse_u64("chaos.overrides", parts[3]);
      spec.crash_overrides.emplace_back(
          parse_u64("chaos.overrides", parts[0]), sched);
    }
    for (const std::string& field :
         split(context_value(ctx, "chaos.partitions"), ';')) {
      if (field.empty()) continue;
      const std::vector<std::string> parts = split(field, ':');
      if (parts.size() != 4) {
        std::fprintf(stderr, "replay: malformed chaos.partitions\n");
        return 2;
      }
      setint::sim::PartitionWindow w;
      w.a = parse_u64("chaos.partitions", parts[0]);
      w.b = parse_u64("chaos.partitions", parts[1]);
      w.start_tick = parse_u64("chaos.partitions", parts[2]);
      w.end_tick = parse_u64("chaos.partitions", parts[3]);
      spec.partitions.push_back(w);
    }
    chaos_plan = std::make_unique<setint::sim::ChaosPlan>(
        spec, u64_field(ctx, "chaos.protocol_seed", "0"));
    options.chaos_plan = chaos_plan.get();
  }

  // Re-execute with a fresh recorder dumping into a scratch prefix, then
  // compare the dump the re-run produced at the SAME incident index.
  const fs::path scratch =
      fs::temp_directory_path() /
      ("setint_replay_" + std::to_string(options.seed));
  fs::create_directories(scratch);
  const std::string prefix = (scratch / "replay").string();
  setint::obs::FlightRecorder rec(/*capacity=*/256);
  rec.set_dump_path(prefix, /*max_dumps=*/8);
  options.recorder = &rec;
  (void)setint::intersect(s, t, options);
  const std::uint64_t incident_index =
      static_cast<std::uint64_t>(incidents->number_or(0));
  const std::string expected_reason = context_value(meta, "reason");
  std::string regenerated =
      prefix + "." + std::to_string(incident_index) + ".jsonl";
  if (!fs::exists(regenerated) && expected_reason.rfind("recorded session", 0) == 0) {
    // The original dump was forced post-run by record mode; do the same.
    rec.incident(expected_reason);
    regenerated = rec.dump_files().empty() ? regenerated
                                           : rec.dump_files().back();
  }
  std::ifstream regen_in(regenerated);
  if (!regen_in) {
    std::fprintf(stderr,
                 "replay: DIVERGED — re-run raised %llu incident(s), "
                 "expected at least %llu\n",
                 static_cast<unsigned long long>(rec.incidents()),
                 static_cast<unsigned long long>(incident_index));
    return 1;
  }
  std::string regen_meta_line;
  std::getline(regen_in, regen_meta_line);
  Json regen_meta = Json::parse(regen_meta_line);
  const Json* regen_digest = regen_meta.find("transcript_digest");
  const std::string want = digest->as_string();
  const std::string got =
      regen_digest != nullptr && regen_digest->is_string()
          ? regen_digest->as_string()
          : "<missing>";
  if (got != want) {
    std::fprintf(stderr,
                 "replay: DIVERGED — transcript digest %s, recorded %s\n",
                 got.c_str(), want.c_str());
    return 1;
  }
  // Digest matched; the whole regenerated dump should be byte-identical.
  std::ostringstream original_rest;
  original_rest << meta_line << '\n' << in.rdbuf();
  std::ostringstream regen_rest;
  regen_rest << regen_meta_line << '\n' << regen_in.rdbuf();
  if (original_rest.str() != regen_rest.str()) {
    std::fprintf(stderr,
                 "replay: DIVERGED — digest matches but dump bytes differ\n");
    return 1;
  }
  std::printf("replay: OK — transcript digest %s reproduced bit-for-bit "
              "(%zu bytes)\n",
              want.c_str(), original_rest.str().size());
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
        seed = parse_u64("--seed", arg.substr(7));
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

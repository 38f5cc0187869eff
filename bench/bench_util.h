// Shared infrastructure for the experiment binaries.
//
// Every exp_* binary follows the same contract (docs/OBSERVABILITY.md §
// "bench pipeline"):
//
//   exp_foo [--seed=<u64>] [--json=<path>] [--smoke]
//
// * --seed seeds all workload generation and protocol randomness; two runs
//   with the same seed produce byte-identical JSON except lines mentioning
//   wall_ms — the trailing wall_ms field plus any timing column, whose
//   names must contain "wall_ms" so the line filter in
//   tools/check_bench_determinism.sh strips them.
// * --json writes a schema-versioned machine-readable record of every
//   table the binary printed (plus experiment-specific notes such as phase
//   breakdowns) — the BENCH_<exp>.json perf-trajectory files at the repo
//   root are produced this way by tools/run_benches.sh.
// * --smoke shrinks workloads to seconds-scale so ctest can keep every
//   bench binary from bit-rotting.
// * A flag value that does not parse whole (--seed=abc, --threads=2x, an
//   empty --json=) exits 2 like an unknown flag, never a silent default.
//
// Usage inside a binary:
//
//   auto rep = bench::Reporter::FromArgs("tradeoff", argc, argv);
//   auto& t = rep.table("E1a: ...", {"k", "bits"});
//   t.add_row({bench::fmt_u64(k), bench::fmt_u64(bits)});
//   t.print();
//   return rep.finish();
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "sim/channel.h"
#include "simd/dispatch.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint::bench {

// Version of the BENCH_*.json schema. Bump when renaming top-level keys or
// changing row encoding; consumers gate on it.
//
// v2 (observability PR): adds "environment" (hardware_threads, compiler,
// build_type, git_sha — so a perf trajectory records what produced it),
// "robustness" (fault./adversary./retry./degraded./limit. counter totals,
// always present) and optional "metrics" (full merged MetricsRegistry) and
// notes.envelope_audit blocks. tools/bench_compare consumes both v1 and
// v2.
//
// v3 (SIMD engine PR): environment gains a "cpu" block — the cpuid bits
// the dispatcher reads (sse4_1, pclmul) and the tier the process actually
// dispatched to (environment.cpu.dispatch_tier: "scalar" | "clmul", after
// SETINT_FORCE_SCALAR). Older v3 records also carry avx2/popcnt bits and
// may say "sse41" | "avx2" from the retired three-tier ladder; the block
// is read only for dispatch_tier, so both shapes compare. Timing numbers
// from records with different dispatch_tier values are incomparable;
// tools/bench_compare refuses to diff them even under --perf-tol.
// tools/bench_compare consumes v1 through v3.
inline constexpr int kBenchSchemaVersion = 3;

struct Options {
  std::uint64_t seed = 0x5e71;
  bool smoke = false;
  int threads = 1;        // batch parallelism (setint::run_batch sessions)
  std::string json_path;  // empty = human tables only
  // Hard-fail threshold (percent) for the telemetry-overhead section of
  // exp_cpu: negative = report only. Timing gates stay opt-in because the
  // repo's determinism checks must never depend on a clock.
  double gate_overhead_pct = -1.0;

  static Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--seed=", 0) == 0) {
        o.seed = util::parse_number<std::uint64_t>("--seed", arg.substr(7));
      } else if (arg.rfind("--json=", 0) == 0) {
        o.json_path = arg.substr(7);
        if (o.json_path.empty()) throw std::runtime_error("--json= needs a path");
      } else if (arg.rfind("--threads=", 0) == 0) {
        o.threads = util::parse_number<int>("--threads", arg.substr(10));
        if (o.threads < 0) {
          throw std::runtime_error("--threads must be >= 0 (0 = auto)");
        }
      } else if (arg.rfind("--gate-overhead=", 0) == 0) {
        o.gate_overhead_pct =
            util::parse_number<double>("--gate-overhead", arg.substr(16));
      } else if (arg == "--smoke") {
        o.smoke = true;
      } else {
        throw std::runtime_error(
            "unknown flag: " + arg +
            " (expected --seed=<u64> --json=<path> --threads=<n> "
            "--gate-overhead=<pct> --smoke)");
      }
    }
    return o;
  }
};

// Build/host fingerprint stamped into every BENCH record so a perf
// trajectory diff can tell "the code regressed" from "the box changed"
// (the PR-4 batch numbers were recorded on a 1-core container and looked
// like a missing speedup until this block existed).
inline obs::Json environment_json() {
  obs::Json env = obs::Json::object();
  env["hardware_threads"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());
#if defined(__VERSION__)
  env["compiler"] = __VERSION__;
#else
  env["compiler"] = "unknown";
#endif
#if defined(SETINT_BUILD_TYPE)
  env["build_type"] = SETINT_BUILD_TYPE;
#else
  env["build_type"] = "unknown";
#endif
#if defined(SETINT_GIT_SHA)
  env["git_sha"] = SETINT_GIT_SHA;
#else
  env["git_sha"] = "unknown";
#endif
  // v3: CPU features + the kernel tier this process dispatches to. Timing
  // columns are only comparable between records with equal dispatch_tier
  // (bench_compare enforces this).
  const simd::CpuFeatures& cpu = simd::detected_features();
  obs::Json cpu_block = obs::Json::object();
  cpu_block["sse4_1"] = cpu.sse4_1;
  cpu_block["pclmul"] = cpu.pclmul;
  cpu_block["dispatch_tier"] = simd::tier_name(simd::active_tier());
  env["cpu"] = std::move(cpu_block);
  return env;
}

// Picks the full or the smoke-sized variant of a workload parameter list.
template <typename T>
std::vector<T> sizes(const Options& opts, std::vector<T> full,
                     std::vector<T> smoke) {
  return opts.smoke ? std::move(smoke) : std::move(full);
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// Prints rows of pre-formatted cells with column alignment and remembers
// them for the JSON record (cells that parse fully as numbers are emitted
// typed).
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns)
      : title_(std::move(title)), columns_(columns), widths_(columns.size()) {
    for (std::size_t i = 0; i < columns.size(); ++i) {
      widths_[i] = columns[i].size();
    }
  }

  void add_row(std::vector<std::string> cells) {
    for (std::size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
      widths_[i] = std::max(widths_[i], cells[i].size());
    }
    rows_.push_back(std::move(cells));
  }

  void print() const {
    print_header(title_);
    print_cells(columns_);
    std::size_t total = 0;
    for (std::size_t w : widths_) total += w + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto& row : rows_) print_cells(row);
  }

  obs::Json ToJson() const {
    obs::Json section = obs::Json::object();
    section["title"] = title_;
    obs::Json& columns = section["columns"] = obs::Json::array();
    for (const auto& c : columns_) columns.push_back(c);
    obs::Json& rows = section["rows"] = obs::Json::array();
    for (const auto& row : rows_) {
      obs::Json record = obs::Json::object();
      for (std::size_t c = 0; c < row.size() && c < columns_.size(); ++c) {
        record[columns_[c]] = obs::Json::from_cell(row[c]);
      }
      rows.push_back(std::move(record));
    }
    return section;
  }

 private:
  void print_cells(const std::vector<std::string>& cells) const {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths_[c]), cells[c].c_str());
    }
    std::printf("\n");
  }

  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::size_t> widths_;
  std::vector<std::vector<std::string>> rows_;
};

// Collects every table (and free-form notes) of one experiment run and
// writes the BENCH_<exp>.json record on finish().
class Reporter {
 public:
  Reporter(std::string experiment, Options opts)
      : experiment_(std::move(experiment)),
        opts_(std::move(opts)),
        start_(std::chrono::steady_clock::now()) {}

  // Parses flags and reports usage errors with exit code 2.
  static Reporter FromArgs(std::string experiment, int argc, char** argv) {
    try {
      return Reporter(std::move(experiment), Options::parse(argc, argv));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(2);
    }
  }

  const Options& options() const { return opts_; }
  std::uint64_t seed() const { return opts_.seed; }
  bool smoke() const { return opts_.smoke; }
  int threads() const { return opts_.threads; }

  // Workload seed for a named sweep point, decorrelated across (label,
  // a, b) but stable under --seed.
  std::uint64_t seed_for(std::uint64_t a, std::uint64_t b = 0) const {
    return util::mix64(opts_.seed, util::mix64(a, b));
  }

  Table& table(std::string title, std::vector<std::string> columns) {
    tables_.emplace_back(std::move(title), std::move(columns));
    return tables_.back();
  }

  // Attach an experiment-specific JSON payload (phase breakdowns, shape
  // verdicts, ...) under notes.<key>.
  void note(std::string_view key, obs::Json value) {
    notes_[key] = std::move(value);
  }

  // Fold one run's (or one batch's) metric registry into the record's
  // aggregate. The robustness block below is derived from this aggregate,
  // so every experiment that routes its tracers here gets fault./retry./
  // degraded./limit./adversary. counters in its JSON for free.
  void merge_metrics(const obs::MetricsRegistry& metrics) {
    metrics_.merge(metrics);
  }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  // Writes the JSON record if --json was given. Returns `exit_code` so
  // main() can end with `return rep.finish(ok ? 0 : 1);`.
  int finish(int exit_code = 0) {
    if (opts_.json_path.empty()) return exit_code;
    obs::Json doc = obs::Json::object();
    doc["schema_version"] = kBenchSchemaVersion;
    doc["experiment"] = experiment_;
    doc["seed"] = opts_.seed;
    doc["smoke"] = opts_.smoke;
    doc["exit_code"] = exit_code;
    doc["environment"] = environment_json();
    doc["robustness"] = robustness_json();
    obs::Json& sections = doc["sections"] = obs::Json::array();
    for (const auto& t : tables_) sections.push_back(t.ToJson());
    if (!metrics_.empty()) doc["metrics"] = metrics_.ToJson();
    if (!notes_.is_null()) doc["notes"] = std::move(notes_);
    // Wall clock goes last, alone on its line (pretty-printed), so the
    // determinism check can strip it with a line filter.
    doc["wall_ms"] =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    obs::write_file(opts_.json_path, doc.dump(2));
    std::printf("\n[bench] wrote %s\n", opts_.json_path.c_str());
    return exit_code;
  }

 private:
  // Robustness counters grouped by family prefix, always present (all
  // zeros on a clean run) so bench_compare can diff fault/degradation
  // activity across two trajectories without schema sniffing.
  obs::Json robustness_json() const {
    static constexpr const char* kFamilies[] = {
        "fault", "adversary", "retry",      "degraded", "limit",
        "chaos", "checkpoint", "budget",    "breaker"};
    obs::Json out = obs::Json::object();
    for (const char* family : kFamilies) {
      const std::string prefix = std::string(family) + ".";
      obs::Json& block = out[family] = obs::Json::object();
      std::uint64_t total = 0;
      obs::Json counters = obs::Json::object();
      for (const auto& [name, c] : metrics_.counters()) {
        if (name.rfind(prefix, 0) != 0) continue;
        total += c.value();
        counters[name] = c.value();
      }
      block["total"] = total;
      block["counters"] = std::move(counters);
    }
    return out;
  }

  std::string experiment_;
  Options opts_;
  std::deque<Table> tables_;  // deque: stable references from table()
  obs::MetricsRegistry metrics_;
  obs::Json notes_;
  std::chrono::steady_clock::time_point start_;
};

inline std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

inline std::string fmt_double(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return std::string(buf);
}

// Average cost of `run` (which must execute one protocol instance on a
// fresh channel and return its CostStats) over `trials` repetitions.
template <typename RunFn>
sim::CostStats average_cost(int trials, RunFn run) {
  sim::CostStats total;
  for (int t = 0; t < trials; ++t) total += run(t);
  total.bits_total /= static_cast<std::uint64_t>(trials);
  total.bits_from_alice /= static_cast<std::uint64_t>(trials);
  total.bits_from_bob /= static_cast<std::uint64_t>(trials);
  total.messages /= static_cast<std::uint64_t>(trials);
  total.rounds /= static_cast<std::uint64_t>(trials);
  return total;
}

}  // namespace setint::bench

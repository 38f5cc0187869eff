// bench_compare — diff two BENCH_*.json records (or two directories of
// them) and fail on cost or identity regressions.
//
//   bench_compare OLD NEW [--tol=<pct>] [--perf-tol=<pct>]
//   bench_compare --inject SRC DST
//
// OLD/NEW are either two record files or two directories; in directory
// mode records pair up by basename, and a record that disappeared from NEW
// is itself a regression (lost coverage). Sections match by title, or —
// a retitled table — by the ID before the title's first ':' (e.g. "E2")
// when that ID names exactly one section in each record; the retitle is
// noted. Rows match by index. Every cell is classified by its column name:
//
//   timing    name contains "wall_ms" — ignored unless --perf-tol is
//             given (clocks are excluded from the determinism contract;
//             see bench_util.h). Even with --perf-tol, timing cells are
//             only compared when both records carry the same
//             environment.cpu.dispatch_tier (schema v3): numbers measured
//             on different dispatch tiers are incomparable, so a tier
//             change downgrades the whole timing comparison to a note.
//   identity  digest / checksum / identical / identity / within /
//             verdict / exact / ok — must match byte-for-byte
//   quality   verified / speedup / slack — fails when NEW < OLD·(1-tol)
//   cost      bits / rounds / messages / attempts / violations /
//             unflagged / degraded / breaches / failures / retries /
//             total — fails when NEW > OLD·(1+tol)
//   info      everything else — printed when it changed, never fails
//
// --tol defaults to 0: records produced from the same seed are
// deterministic, so any cost increase is a real regression. On top of the
// table diff the tool fails when NEW's exit_code is non-zero, when NEW's
// notes.envelope_audit went red (all_within = false), when a
// robustness family total (fault/adversary/retry/degraded/limit) grew,
// and when NEW's environment.cpu.dispatch_tier is no simd::tier_name.
// Environment-block differences are reported but informational — they
// explain a perf delta, they are not one.
//
// --inject copies SRC to DST, inflating the first cost-classified cell it
// finds by 25% + 1. That perturbed copy is how ci.sh proves the comparator
// actually fails on a cost regression (a comparator that cannot fail is
// not a gate).
//
// Exit codes: 0 = no regression, 1 = regression, 2 = usage error,
// unreadable/malformed input, or incomparable records (different
// experiment, seed or smoke flag).
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "simd/dispatch.h"
#include "util/parse.h"

namespace {

namespace fs = std::filesystem;
using setint::obs::Json;
namespace simd = setint::simd;

struct Options {
  std::string old_path;
  std::string new_path;
  double tol_pct = 0.0;        // cost/quality tolerance
  double perf_tol_pct = -1.0;  // timing tolerance; < 0 = skip timing cells
  bool inject = false;
};

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "bench_compare: %s\n", msg);
  std::fprintf(stderr,
               "usage: bench_compare OLD NEW [--tol=<pct>] [--perf-tol=<pct>]\n"
               "       bench_compare --inject SRC DST\n");
  std::exit(2);
}

// A flag's value, parsed whole; anything else is a usage error.
template <typename T>
T parse_flag(const std::string& flag, const std::string& value) {
  try {
    return setint::util::parse_number<T>(flag, value);
  } catch (const std::exception& e) {
    usage(e.what());
  }
}

Options parse_args(int argc, char** argv) {
  Options o;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--inject") {
      o.inject = true;
    } else if (arg.rfind("--tol=", 0) == 0) {
      o.tol_pct = parse_flag<double>("--tol", arg.substr(6));
    } else if (arg.rfind("--perf-tol=", 0) == 0) {
      o.perf_tol_pct = parse_flag<double>("--perf-tol", arg.substr(11));
    } else if (arg.rfind("--", 0) == 0) {
      usage(("unknown flag: " + arg).c_str());
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) usage("expected exactly two paths");
  o.old_path = positional[0];
  o.new_path = positional[1];
  return o;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Column classification
// ---------------------------------------------------------------------------

enum class Class { kTiming, kIdentity, kQuality, kCost, kInfo };

bool contains_any(const std::string& name,
                  std::initializer_list<const char*> needles) {
  for (const char* n : needles) {
    if (name.find(n) != std::string::npos) return true;
  }
  return false;
}

Class classify(const std::string& column) {
  std::string name(column.size(), '\0');
  std::transform(column.begin(), column.end(), name.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  // Timing first: bench_util.h requires every clock-derived cell to live
  // in a column whose name contains "wall_ms", so this test dominates
  // (e.g. "speedup (wall_ms ratio)" is timing, not quality).
  if (name.find("wall_ms") != std::string::npos) return Class::kTiming;
  if (contains_any(name, {"digest", "checksum", "identical", "identity",
                          "within", "verdict", "exact"}) ||
      name == "ok") {
    return Class::kIdentity;
  }
  if (contains_any(name, {"verified", "speedup", "slack"})) {
    return Class::kQuality;
  }
  if (contains_any(name, {"bits", "rounds", "messages", "attempts",
                          "violations", "unflagged", "degraded", "breaches",
                          "failures", "retries", "total"})) {
    return Class::kCost;
  }
  return Class::kInfo;
}

// ---------------------------------------------------------------------------
// Record comparison
// ---------------------------------------------------------------------------

struct Verdict {
  int regressions = 0;
  int warnings = 0;
  int cells_checked = 0;

  void fail(const std::string& record, const std::string& where,
            const std::string& what) {
    ++regressions;
    std::printf("[bench_compare] FAIL %s: %s: %s\n", record.c_str(),
                where.c_str(), what.c_str());
  }
  void warn(const std::string& record, const std::string& where,
            const std::string& what) {
    ++warnings;
    std::printf("[bench_compare] note %s: %s: %s\n", record.c_str(),
                where.c_str(), what.c_str());
  }
};

const Json* find_section(const Json& doc, const std::string& title) {
  const Json* sections = doc.find("sections");
  if (sections == nullptr) return nullptr;
  for (const Json& s : sections->array_items()) {
    const Json* t = s.find("title");
    if (t != nullptr && t->is_string() && t->as_string() == title) return &s;
  }
  return nullptr;
}

// A section title's ID: its text before the first ':' ("E2" of
// "E2: measured rounds ..."); empty when it has none.
std::string section_id(const std::string& title) {
  const std::size_t colon = title.find(':');
  return colon == std::string::npos ? std::string() : title.substr(0, colon);
}

// The one section of `doc` whose title has ID `id`; nullptr when none or
// several do.
const Json* find_unique_id(const Json& doc, const std::string& id) {
  const Json* sections = doc.find("sections");
  if (sections == nullptr) return nullptr;
  const Json* found = nullptr;
  for (const Json& s : sections->array_items()) {
    const Json* t = s.find("title");
    if (t == nullptr || !t->is_string() || section_id(t->as_string()) != id) {
      continue;
    }
    if (found != nullptr) return nullptr;
    found = &s;
  }
  return found;
}

// NEW's section for OLD's section titled `title`: the same title, or the
// same ID when it is unique in both records.
const Json* match_section(const Json& olddoc, const Json& newdoc,
                          const std::string& title) {
  if (const Json* exact = find_section(newdoc, title)) return exact;
  const std::string id = section_id(title);
  if (id.empty() || find_unique_id(olddoc, id) == nullptr) return nullptr;
  return find_unique_id(newdoc, id);
}

void compare_cell(Verdict& v, const std::string& record,
                  const std::string& where, const std::string& column,
                  const Json& oldc, const Json& newc, const Options& opts) {
  Class cls = classify(column);
  if (cls == Class::kTiming) {
    if (opts.perf_tol_pct < 0.0) return;  // clocks excluded by default
    cls = Class::kCost;                   // opt-in: compare with perf-tol
  }
  const double tol =
      (classify(column) == Class::kTiming ? opts.perf_tol_pct : opts.tol_pct) /
      100.0;
  ++v.cells_checked;
  const double oldn = oldc.number_or(NAN);
  const double newn = newc.number_or(NAN);
  const bool numeric = !std::isnan(oldn) && !std::isnan(newn);
  switch (cls) {
    case Class::kIdentity:
      if (oldc.dump() != newc.dump()) {
        v.fail(record, where,
               "identity column \"" + column + "\" changed: " + oldc.dump() +
                   " -> " + newc.dump());
      }
      break;
    case Class::kQuality:
      if (numeric && newn < oldn * (1.0 - tol)) {
        v.fail(record, where,
               "quality column \"" + column + "\" dropped: " + oldc.dump() +
                   " -> " + newc.dump());
      } else if (!numeric && oldc.dump() != newc.dump()) {
        v.fail(record, where,
               "quality column \"" + column + "\" changed: " + oldc.dump() +
                   " -> " + newc.dump());
      }
      break;
    case Class::kCost:
      if (numeric && newn > oldn * (1.0 + tol)) {
        char pct[48];
        std::snprintf(pct, sizeof(pct), "%+.1f%%",
                      oldn > 0 ? (newn / oldn - 1.0) * 100.0 : INFINITY);
        v.fail(record, where,
               "cost column \"" + column + "\" grew " + pct + ": " +
                   oldc.dump() + " -> " + newc.dump());
      }
      break;
    case Class::kInfo:
      if (oldc.dump() != newc.dump()) {
        v.warn(record, where,
               "\"" + column + "\": " + oldc.dump() + " -> " + newc.dump());
      }
      break;
    case Class::kTiming:
      break;  // unreachable (rewritten to kCost above)
  }
}

void compare_sections(Verdict& v, const std::string& record, const Json& olddoc,
                      const Json& newdoc, const Options& opts) {
  const Json* old_sections = olddoc.find("sections");
  if (old_sections == nullptr) return;
  for (const Json& olds : old_sections->array_items()) {
    const Json* title = olds.find("title");
    if (title == nullptr || !title->is_string()) continue;
    const Json* news = match_section(olddoc, newdoc, title->as_string());
    if (news == nullptr) {
      v.fail(record, title->as_string(), "section missing from new record");
      continue;
    }
    const std::string& new_title = news->find("title")->as_string();
    if (new_title != title->as_string()) {
      v.warn(record, title->as_string(),
             "section retitled to \"" + new_title + "\"");
    }
    const Json* old_rows_j = olds.find("rows");
    const Json* new_rows_j = news->find("rows");
    if (old_rows_j == nullptr || new_rows_j == nullptr) continue;
    const auto& old_rows = old_rows_j->array_items();
    const auto& new_rows = new_rows_j->array_items();
    if (old_rows.size() != new_rows.size()) {
      v.warn(record, title->as_string(),
             "row count changed (" + std::to_string(old_rows.size()) + " -> " +
                 std::to_string(new_rows.size()) + "); comparing common prefix");
    }
    const std::size_t n = std::min(old_rows.size(), new_rows.size());
    for (std::size_t i = 0; i < n; ++i) {
      const auto& old_cells = old_rows[i].object_items();
      const std::string where =
          title->as_string() + " row " + std::to_string(i);
      // Label drift (first column, usually the sweep key) means the rows
      // no longer describe the same workload — skip, don't compare apples
      // to oranges.
      if (!old_cells.empty()) {
        const Json* newc = new_rows[i].find(old_cells.front().first);
        if (newc == nullptr ||
            old_cells.front().second.dump() != newc->dump()) {
          if (classify(old_cells.front().first) == Class::kInfo) {
            v.warn(record, where, "row label changed; skipping row");
            continue;
          }
        }
      }
      for (const auto& [column, oldc] : old_cells) {
        const Json* newc = new_rows[i].find(column);
        if (newc == nullptr) {
          v.warn(record, where, "column \"" + column + "\" missing from new");
          continue;
        }
        compare_cell(v, record, where, column, oldc, *newc, opts);
      }
    }
  }
}

void compare_robustness(Verdict& v, const std::string& record,
                        const Json& olddoc, const Json& newdoc,
                        const Options& opts) {
  const Json* oldr = olddoc.find("robustness");
  const Json* newr = newdoc.find("robustness");
  if (oldr == nullptr || newr == nullptr) return;  // v1 record: no block
  const double tol = opts.tol_pct / 100.0;
  for (const auto& [family, oldblock] : oldr->object_items()) {
    const Json* newblock = newr->find(family);
    if (newblock == nullptr) continue;
    const double oldt = oldblock.find("total")
                            ? oldblock.find("total")->number_or(0)
                            : 0;
    const double newt = newblock->find("total")
                            ? newblock->find("total")->number_or(0)
                            : 0;
    if (newt > oldt * (1.0 + tol)) {
      v.fail(record, "robustness." + family,
             "family total grew: " + std::to_string(oldt) + " -> " +
                 std::to_string(newt));
    }
  }
}

void compare_envelope(Verdict& v, const std::string& record,
                      const Json& olddoc, const Json& newdoc) {
  const Json* oldn = olddoc.find("notes");
  const Json* newn = newdoc.find("notes");
  const Json* olda = oldn != nullptr ? oldn->find("envelope_audit") : nullptr;
  const Json* newa = newn != nullptr ? newn->find("envelope_audit") : nullptr;
  if (olda != nullptr && newa == nullptr) {
    v.warn(record, "notes.envelope_audit", "audit disappeared from new record");
    return;
  }
  if (newa == nullptr) return;
  const Json* within = newa->find("all_within");
  if (within != nullptr && !within->as_bool()) {
    v.fail(record, "notes.envelope_audit",
           "theory-conformance envelope violated (all_within = false)");
  }
}

// Compares one OLD/NEW record pair. Returns 2 (propagated by the caller)
// when the pair is incomparable, 0 otherwise; regressions accumulate in v.
int compare_records(Verdict& v, const std::string& record, const Json& olddoc,
                    const Json& newdoc, const Options& opts) {
  for (const char* key : {"experiment", "seed", "smoke"}) {
    const Json* o = olddoc.find(key);
    const Json* n = newdoc.find(key);
    const std::string od = o != nullptr ? o->dump() : "<absent>";
    const std::string nd = n != nullptr ? n->dump() : "<absent>";
    if (od != nd) {
      std::fprintf(stderr,
                   "[bench_compare] %s: incomparable records: %s %s vs %s\n",
                   record.c_str(), key, od.c_str(), nd.c_str());
      return 2;
    }
  }
  const Json* old_exit = olddoc.find("exit_code");
  const Json* new_exit = newdoc.find("exit_code");
  if (old_exit != nullptr && old_exit->number_or(0) != 0) {
    v.warn(record, "exit_code", "baseline record was already failing");
  }
  if (new_exit != nullptr && new_exit->number_or(0) != 0) {
    v.fail(record, "exit_code",
           "new record exited non-zero (" + new_exit->dump() + ")");
  }
  // Environment drift is context, not a verdict: a changed box or compiler
  // explains a perf delta but the cost columns above are seed-deterministic
  // and still comparable.
  const Json* olde = olddoc.find("environment");
  const Json* newe = newdoc.find("environment");
  if (olde != nullptr && newe != nullptr) {
    for (const auto& [key, oldval] : olde->object_items()) {
      const Json* newval = newe->find(key);
      if (newval != nullptr && oldval.dump() != newval->dump()) {
        v.warn(record, "environment." + key,
               oldval.dump() + " -> " + newval->dump());
      }
    }
  }
  auto tier_of = [](const Json* env) -> std::string {
    const Json* cpu = env != nullptr ? env->find("cpu") : nullptr;
    const Json* tier = cpu != nullptr ? cpu->find("dispatch_tier") : nullptr;
    return tier != nullptr ? tier->dump() : "<absent>";
  };
  // A tier that is no simd::tier_name value is a stale or hand-edited
  // cpu block: the record does not say what it was measured on.
  const std::string new_tier = tier_of(newe);
  const auto named = [&](simd::Tier t) {
    return new_tier == Json(simd::tier_name(t)).dump();
  };
  if (new_tier != "<absent>" && !named(simd::Tier::kScalar) &&
      !named(simd::Tier::kClmul)) {
    v.fail(record, "environment.cpu.dispatch_tier",
           "unknown dispatch tier " + new_tier);
  }
  // Timing cells are only meaningful between runs on the same dispatch
  // tier: a clmul box vs a scalar box differ by design, not by
  // regression. A tier mismatch (or a v2 record without the cpu block)
  // turns --perf-tol off for this pair and leaves a note.
  Options eff = opts;
  if (opts.perf_tol_pct >= 0.0 && olde != nullptr && newe != nullptr) {
    const std::string old_tier = tier_of(olde);
    if (old_tier != new_tier) {
      v.warn(record, "environment.cpu.dispatch_tier",
             "timing incomparable across SIMD tiers (" + old_tier + " -> " +
                 new_tier + "); skipping wall_ms cells despite --perf-tol");
      eff.perf_tol_pct = -1.0;
    }
  }
  compare_sections(v, record, olddoc, newdoc, eff);
  compare_robustness(v, record, olddoc, newdoc, eff);
  compare_envelope(v, record, olddoc, newdoc);
  return 0;
}

// ---------------------------------------------------------------------------
// --inject: write a copy of SRC with one cost cell inflated.
// ---------------------------------------------------------------------------

// The Json model is write-once (const iteration, operator[] insert), so
// injection re-builds the mutated parts instead of editing in place:
// the first cost-classified numeric cell gets +25% + 1.
Json inject_copy(const Json& doc, bool& injected) {
  Json out = Json::object();
  for (const auto& [key, value] : doc.object_items()) {
    if (key != "sections" || injected) {
      out[key] = value;
      continue;
    }
    Json sections = Json::array();
    for (const Json& section : value.array_items()) {
      if (injected) {
        sections.push_back(section);
        continue;
      }
      Json news = Json::object();
      for (const auto& [skey, sval] : section.object_items()) {
        if (skey != "rows" || injected) {
          news[skey] = sval;
          continue;
        }
        Json rows = Json::array();
        for (const Json& row : sval.array_items()) {
          if (injected) {
            rows.push_back(row);
            continue;
          }
          Json newrow = Json::object();
          for (const auto& [column, cell] : row.object_items()) {
            const double n = cell.number_or(NAN);
            if (!injected && classify(column) == Class::kCost &&
                !std::isnan(n)) {
              newrow[column] =
                  static_cast<std::uint64_t>(std::llround(n * 1.25) + 1);
              injected = true;
              std::printf("[bench_compare] injected +25%% into \"%s\"\n",
                          column.c_str());
            } else {
              newrow[column] = cell;
            }
          }
          rows.push_back(std::move(newrow));
        }
        news[skey] = std::move(rows);
      }
      sections.push_back(std::move(news));
    }
    out[key] = std::move(sections);
  }
  return out;
}

void write_text(const std::string& path, const std::string& contents) {
  std::ofstream outf(path, std::ios::binary | std::ios::trunc);
  if (!outf || !(outf << contents)) {
    throw std::runtime_error("cannot write " + path);
  }
}

int run_inject(const Options& opts) {
  std::vector<std::pair<std::string, std::string>> files;
  if (fs::is_directory(opts.old_path)) {
    fs::create_directories(opts.new_path);
    for (const auto& entry : fs::directory_iterator(opts.old_path)) {
      if (entry.path().extension() != ".json") continue;
      files.emplace_back(entry.path().string(),
                         (fs::path(opts.new_path) / entry.path().filename())
                             .string());
    }
    std::sort(files.begin(), files.end());
  } else {
    files.emplace_back(opts.old_path, opts.new_path);
  }
  if (files.empty()) usage("--inject: no .json records in SRC");
  bool injected_any = false;
  for (const auto& [src, dst] : files) {
    const Json doc = Json::parse(read_file(src));
    bool injected = false;
    const Json copy = inject_copy(doc, injected);
    injected_any = injected_any || injected;
    write_text(dst, copy.dump(2));
  }
  if (!injected_any) {
    std::fprintf(stderr,
                 "[bench_compare] --inject: no cost-classified numeric cell "
                 "found in SRC\n");
    return 2;
  }
  return 0;
}

// ---------------------------------------------------------------------------

int run_compare(const Options& opts) {
  std::vector<std::pair<std::string, std::string>> pairs;  // (record, oldpath)
  const bool old_dir = fs::is_directory(opts.old_path);
  const bool new_dir = fs::is_directory(opts.new_path);
  if (old_dir != new_dir) usage("OLD and NEW must both be files or both dirs");

  Verdict v;
  if (old_dir) {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(opts.old_path)) {
      if (entry.path().extension() == ".json") {
        names.push_back(entry.path().filename().string());
      }
    }
    std::sort(names.begin(), names.end());
    if (names.empty()) usage("no .json records in OLD directory");
    for (const std::string& name : names) {
      pairs.emplace_back(name, name);
    }
    for (const auto& entry : fs::directory_iterator(opts.new_path)) {
      if (entry.path().extension() != ".json") continue;
      const std::string name = entry.path().filename().string();
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        v.warn(name, "directory", "record only present in NEW (new coverage)");
      }
    }
  } else {
    pairs.emplace_back(fs::path(opts.new_path).filename().string(), "");
  }

  for (const auto& [record, name] : pairs) {
    const std::string oldp =
        old_dir ? (fs::path(opts.old_path) / name).string() : opts.old_path;
    const std::string newp =
        old_dir ? (fs::path(opts.new_path) / name).string() : opts.new_path;
    if (old_dir && !fs::exists(newp)) {
      v.fail(record, "directory", "record missing from NEW (lost coverage)");
      continue;
    }
    Json olddoc, newdoc;
    try {
      olddoc = Json::parse(read_file(oldp));
      newdoc = Json::parse(read_file(newp));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[bench_compare] %s\n", e.what());
      return 2;
    }
    const int rc = compare_records(v, record, olddoc, newdoc, opts);
    if (rc != 0) return rc;
  }

  std::printf(
      "[bench_compare] %zu record(s), %d cell(s) checked, %d regression(s), "
      "%d note(s)\n",
      pairs.size(), v.cells_checked, v.regressions, v.warnings);
  return v.regressions > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_args(argc, argv);
  try {
    return opts.inject ? run_inject(opts) : run_compare(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[bench_compare] %s\n", e.what());
    return 2;
  }
}

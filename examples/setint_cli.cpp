// setint_cli — run any of the library's protocols on two key files.
//
// Usage:
//   example_setint_cli <file_a> <file_b> [--protocol=NAME] [--r=N]
//                      [--universe=N] [--seed=N] [--print]
//                      [--trace-out=PATH]
//
// Each input file holds one unsigned 64-bit key per line. Protocols:
//   tree (default) | one-round | bucket-eq | toy | private-coin | naive
//
// Prints the intersection size (and the elements with --print) plus the
// exact communication cost the exchange would have taken. Exits 2 on a
// usage error, including a numeric flag value that does not parse whole.
//
// --trace-out=PATH runs the library facade (the verified tree pipeline)
// with full phase tracing and writes PATH as a Chrome-trace-format
// timeline (load in chrome://tracing or https://ui.perfetto.dev; 1 "us" =
// 1 transmitted bit) plus PATH.report.json with the phase breakdown and
// metric snapshot. Only the default tree protocol can be traced this way.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/bucket_eq.h"
#include "core/deterministic_exchange.h"
#include "core/one_round_hash.h"
#include "core/private_coin.h"
#include "core/toy_protocol.h"
#include "core/verification_tree.h"
#include "obs/export.h"
#include "obs/tracer.h"
#include "setint.h"
#include "util/parse.h"
#include "util/set_util.h"

namespace {

using namespace setint;

util::Set load_keys(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  util::Set keys;
  std::uint64_t v = 0;
  while (in >> v) keys.push_back(v);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

std::unique_ptr<core::IntersectionProtocol> make_protocol(
    const std::string& name, int r) {
  if (name == "tree") {
    core::VerificationTreeParams params;
    params.rounds_r = r;
    return std::make_unique<core::VerificationTreeProtocol>(params);
  }
  if (name == "one-round") return std::make_unique<core::OneRoundHashProtocol>();
  if (name == "bucket-eq") return std::make_unique<core::BucketEqProtocol>();
  if (name == "toy") return std::make_unique<core::ToyBucketProtocol>();
  if (name == "private-coin") {
    core::VerificationTreeParams params;
    params.rounds_r = r;
    return std::make_unique<core::PrivateCoinProtocol>(params);
  }
  if (name == "naive") {
    return std::make_unique<core::DeterministicExchangeProtocol>();
  }
  throw std::runtime_error("unknown protocol: " + name);
}

// Facade run with full tracing; writes the Chrome trace + run report and
// prints the top of the phase breakdown.
int run_traced(const util::Set& a, const util::Set& b, std::uint64_t universe,
               std::uint64_t seed, int r, bool print_elements,
               const std::string& trace_path) {
  obs::Tracer tracer(/*record_events=*/true);
  IntersectOptions options;
  options.universe = universe;
  options.seed = seed;
  options.rounds_r = r;
  options.tracer = &tracer;
  const IntersectResult result = intersect(a, b, options);

  std::ostringstream trace;
  obs::write_chrome_trace(tracer, trace);
  obs::write_file(trace_path, trace.str());
  const std::string report_path = trace_path + ".report.json";
  obs::write_file(report_path, result.report.ToJson().dump(2));

  const util::Set truth = util::set_intersection(a, b);
  std::printf("protocol      : verified tree facade (traced)\n");
  std::printf("inputs        : |A| = %zu, |B| = %zu, universe = %llu\n",
              a.size(), b.size(), static_cast<unsigned long long>(universe));
  std::printf("intersection  : %zu elements (%s)\n",
              result.intersection.size(),
              result.intersection == truth ? "exact" : "INEXACT");
  std::printf("communication : %llu bits in %llu rounds\n",
              static_cast<unsigned long long>(result.bits),
              static_cast<unsigned long long>(result.rounds));
  std::printf("trace         : %s\n", trace_path.c_str());
  std::printf("run report    : %s\n", report_path.c_str());
  std::printf("\nphase breakdown (bits, total incl. children):\n");
  for (const obs::PhaseRow& row : result.report.phases) {
    if (row.depth > 2) continue;  // keep the console summary shallow
    std::printf("  %-48s %12llu\n",
                (std::string(static_cast<std::size_t>(
                                 2 * (row.depth + 1)),
                             ' ') +
                 (row.path.empty() ? "(total)" : row.path))
                    .c_str(),
                static_cast<unsigned long long>(row.bits));
  }
  if (print_elements) {
    for (std::uint64_t x : result.intersection) {
      std::printf("%llu\n", static_cast<unsigned long long>(x));
    }
  }
  return result.intersection == truth ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <file_a> <file_b> [--protocol=tree|one-round|"
                 "bucket-eq|toy|private-coin|naive] [--r=N] [--universe=N] "
                 "[--seed=N] [--print] [--trace-out=PATH]\n",
                 argv[0]);
    return 2;
  }
  try {
    std::string protocol_name = "tree";
    int r = 0;
    std::uint64_t universe = 0;
    std::uint64_t seed = 0x5e71;
    bool print_elements = false;
    std::string trace_path;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--protocol=", 0) == 0) protocol_name = arg.substr(11);
      else if (arg.rfind("--r=", 0) == 0) r = util::parse_number<int>("--r", arg.substr(4));
      else if (arg.rfind("--universe=", 0) == 0)
        universe = util::parse_number<std::uint64_t>("--universe", arg.substr(11));
      else if (arg.rfind("--seed=", 0) == 0)
        seed = util::parse_number<std::uint64_t>("--seed", arg.substr(7));
      else if (arg.rfind("--trace-out=", 0) == 0) trace_path = arg.substr(12);
      else if (arg == "--print") print_elements = true;
      else throw std::runtime_error("unknown flag: " + arg);
    }

    const util::Set a = load_keys(argv[1]);
    const util::Set b = load_keys(argv[2]);
    if (universe == 0) {
      std::uint64_t max_element = 0;
      if (!a.empty()) max_element = a.back();
      if (!b.empty()) max_element = std::max(max_element, b.back());
      universe = max_element + 1;
    }

    if (!trace_path.empty()) {
      if (protocol_name != "tree") {
        throw std::runtime_error(
            "--trace-out drives the facade's verified tree pipeline; drop "
            "--protocol=" +
            protocol_name + " or the trace flag");
      }
      return run_traced(a, b, universe, seed, r, print_elements, trace_path);
    }

    const auto protocol = make_protocol(protocol_name, r);
    const core::RunResult result = protocol->run(seed, universe, a, b);

    const util::Set truth = util::set_intersection(a, b);
    std::printf("protocol      : %s\n", protocol->name().c_str());
    std::printf("inputs        : |A| = %zu, |B| = %zu, universe = %llu\n",
                a.size(), b.size(),
                static_cast<unsigned long long>(universe));
    std::printf("intersection  : %zu elements (%s)\n",
                result.output.alice.size(),
                result.output.alice == truth ? "exact" : "INEXACT");
    std::printf("communication : %llu bits in %llu rounds (%llu messages)\n",
                static_cast<unsigned long long>(result.cost.bits_total),
                static_cast<unsigned long long>(result.cost.rounds),
                static_cast<unsigned long long>(result.cost.messages));
    if (print_elements) {
      for (std::uint64_t x : result.output.alice) {
        std::printf("%llu\n", static_cast<unsigned long long>(x));
      }
    }
    return result.output.alice == truth ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

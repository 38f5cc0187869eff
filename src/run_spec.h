// run_spec.h — one facade session as a value, with its one text codec.
//
// The protocols draw public coins from the session seed, so a
// setint::intersect session is a pure function of its inputs, options and
// the specs of fresh fault and chaos plans: a RunSpec. The facade stamps
// to_context(run_spec_of(...)) into its flight recorder; tools/replay is
// parse_context, run, compare. No other code writes or reads a context
// key (docs/OBSERVABILITY.md § replay context lists them).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "setint.h"

namespace setint {

struct RunSpec {
  util::Set s;
  util::Set t;
  std::uint64_t seed = IntersectOptions{}.seed;
  std::uint64_t universe = 0;  // as the session ran it (never inferred)
  int rounds_r = 0;
  bool checkpoint = true;
  core::RetryPolicy retry;
  core::SessionBudgetSpec budget;
  core::ResourceLimits limits;
  struct Faults {
    sim::FaultSpec spec;
    std::vector<sim::LinkFaults> overlays;
    bool operator==(const Faults&) const = default;
  };
  std::optional<Faults> fault;
  struct Chaos {
    sim::ChaosSpec spec;
    std::uint64_t protocol_seed = 0;
    bool operator==(const Chaos&) const = default;
  };
  std::optional<Chaos> chaos;
  // Why no spec rebuilds the session (an adversary, whose frames depend on
  // live protocol state, or a plan or flight recorder that had already
  // carried traffic); empty when one does.
  std::string non_replayable;

  bool operator==(const RunSpec&) const = default;
};

using ReplayContext = std::vector<std::pair<std::string, std::string>>;

// Key/value pairs in a fixed order; budget and limits at their defaults,
// absent plans and empty lists write none.
ReplayContext to_context(const RunSpec& spec);

// The inverse, from a JSON object of strings. Absent optional keys keep
// the structs' defaults; any key of a plan's block installs that plan.
// Throws std::invalid_argument naming the key for an unknown key, a
// malformed or non-string value, or a missing kind, seed, universe, s, t.
RunSpec parse_context(const obs::Json& context);

// The spec of intersect(s, t, options) over the inferred `universe`.
RunSpec run_spec_of(util::SetView s, util::SetView t, std::uint64_t universe,
                    const IntersectOptions& options);

// Runs `spec` on fresh plans built from it, recording into `recorder`.
IntersectResult run(const RunSpec& spec,
                    obs::FlightRecorder* recorder = nullptr);

}  // namespace setint

// Resource-bounded execution: the defense that turns a Byzantine peer's
// resource-exhaustion attacks into ordinary recoverable failures.
//
// The stochastic fault layer (sim/fault.h) assumes the *peer* is honest
// and only the link is hostile. A Byzantine peer (sim/adversary.h) can
// instead emit arbitrarily large frames, inflated length prefixes, or
// message streams that never terminate the protocol. ResourceLimits caps
// what the honest side accepts from one frame: its size, checked by
// sim::Channel at delivery time, and the items it decodes to, checked by
// util::BitReader. A breached cap throws ResourceLimitError, which the
// retry layer (core/retry.h, multiparty/coordinator.cc) treats exactly
// like a decode failure — retry with fresh randomness, then degrade
// honestly — so an attacker can waste attempts but can never crash or
// exhaust the memory of an honest party. What a whole run may spend is
// capped by the session budget (core/budget.h), checked before every
// send. See docs/ROBUSTNESS.md ("Threat model").
//
// This header is a dependency leaf (std only): util and sim both consume
// it without layering cycles.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace setint::core {

// All caps use 0 = unlimited. A default-constructed value disables every
// check, and disabled limits are free: the enforcement sites test one
// branch and touch no protocol bits, so zero-fault runs are bit-for-bit
// identical with or without a limits object installed (pinned by
// tests/adversary_test.cc and the BENCH_tradeoff determinism contract).
struct ResourceLimits {
  // Largest single frame the honest side will accept for decoding.
  std::uint64_t max_message_bits = 0;
  // Items (set elements, hashed-image entries, positions) one decoder
  // invocation may materialize — the cap a lying length prefix hits.
  std::uint64_t max_decoded_items = 0;

  bool enabled() const {
    return max_message_bits > 0 || max_decoded_items > 0;
  }
  bool operator==(const ResourceLimits&) const = default;

  // A permissive-but-finite profile sized for sets of <= k elements over
  // [0, universe): generous constant factors over the honest protocol's
  // worst case, so legitimate runs never trip while crafted frames do.
  static ResourceLimits for_workload(std::uint64_t universe, std::uint64_t k);
};

// A resource cap was breached. Derives from std::runtime_error so the
// existing catch-retry-degrade path handles it without special cases;
// `what()` names the breached limit (e.g. "max_decoded_items").
struct ResourceLimitError : std::runtime_error {
  explicit ResourceLimitError(const std::string& message)
      : std::runtime_error("resource limit: " + message) {}
};

inline ResourceLimits ResourceLimits::for_workload(std::uint64_t universe,
                                                   std::uint64_t k) {
  // Honest frames carry at most ~k elements at ~2*log2(universe)+3 bits
  // each plus framing; log2(universe) <= 64 always.
  if (k < 2) k = 2;
  unsigned log_u = 1;
  while ((std::uint64_t{1} << log_u) < universe && log_u < 63) ++log_u;
  ResourceLimits limits;
  limits.max_message_bits = 64 * k * (2 * log_u + 16);
  limits.max_decoded_items = 64 * k;
  return limits;
}

}  // namespace setint::core

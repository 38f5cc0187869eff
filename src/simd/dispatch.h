// Runtime CPU dispatch for the one kernel that has a vector form.
//
// The wire format is sacred; the local compute between messages is not.
// Only the GF(2) Toeplitz product (simd/kernels.h) exists in two forms: a
// portable word loop and a carry-less multiply (PCLMULQDQ) version. The
// form is selected ONCE per process from cpuid, so a binary built with
// the clmul file's ISA flags still runs on any x86-64 (that translation
// unit is only entered when cpuid says the instructions exist). Both
// forms compute bit-identical results: the golden transcripts and all
// protocol digests are pinned across dispatch modes
// (tests/golden_test.cc, tests/transcript_digest_test.cc, bench/exp_cpu
// E-CPU.0), and tests/bitio_property_test.cc checks both against a
// bit-at-a-time reference.
//
// Overrides, in precedence order:
//   1. simd::ScopedTierOverride — test-only forced dispatch, clamped to
//      what the hardware supports;
//   2. SETINT_FORCE_SCALAR=1 — environment knob for whole-process scalar
//      runs (the ci.sh simd lane re-runs the label slice under it).
#pragma once

namespace setint::simd {

enum class Tier : int {
  kScalar = 0,
  kClmul = 1,  // PCLMULQDQ + SSE4.1
};

// The cpuid bits the dispatcher reads. Recorded in every BENCH_*.json
// environment block (bench/bench_util.h).
struct CpuFeatures {
  bool sse4_1 = false;
  bool pclmul = false;
};

// Features of the machine we are running on (detected once, cached).
const CpuFeatures& detected_features();

// Best tier the hardware supports (ignores overrides).
Tier detected_tier();

// The tier kernels actually dispatch to right now: detected_tier() capped
// by SETINT_FORCE_SCALAR and any live ScopedTierOverride.
Tier active_tier();

// Stable lowercase name ("scalar", "clmul") — used in BENCH environment
// blocks, bench_compare classification, and test logs.
const char* tier_name(Tier tier);

// Test/bench-only forced dispatch. Requests above detected_tier() are
// clamped (you cannot execute PCLMULQDQ on a box without it). Nests;
// restores the previous override on destruction. NOT thread-safe — the
// differential suites that use it are single-threaded by design.
class ScopedTierOverride {
 public:
  explicit ScopedTierOverride(Tier tier);
  ~ScopedTierOverride();
  ScopedTierOverride(const ScopedTierOverride&) = delete;
  ScopedTierOverride& operator=(const ScopedTierOverride&) = delete;

 private:
  int previous_;
};

}  // namespace setint::simd

#include "simd/dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace setint::simd {

namespace {

CpuFeatures detect() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(_M_X64)
  // __builtin_cpu_supports reads cpuid once per process under the hood
  // (libgcc caches the feature words after __builtin_cpu_init).
  f.avx2 = __builtin_cpu_supports("avx2");
  f.sse4_1 = __builtin_cpu_supports("sse4.1");
  f.popcnt = __builtin_cpu_supports("popcnt");
  f.pclmul = __builtin_cpu_supports("pclmul");
#endif
  return f;
}

Tier tier_from_features(const CpuFeatures& f) {
  // POPCNT gates both vector tiers: the SSE4.1 kernels lean on hardware
  // popcount and every AVX2 part has it anyway.
  if (f.avx2 && f.popcnt) return Tier::kAvx2;
  if (f.sse4_1 && f.popcnt) return Tier::kSse41;
  return Tier::kScalar;
}

// Environment cap, parsed once. SETINT_FORCE_SCALAR=1 (or any value other
// than "0"/"") wins over SETINT_FORCE_TIER.
Tier env_capped_tier() {
  const Tier hw = tier_from_features(detected_features());
  const char* scalar = std::getenv("SETINT_FORCE_SCALAR");
  if (scalar != nullptr && scalar[0] != '\0' &&
      !(scalar[0] == '0' && scalar[1] == '\0')) {
    return Tier::kScalar;
  }
  const char* name = std::getenv("SETINT_FORCE_TIER");
  if (name == nullptr) return hw;
  Tier requested = hw;
  if (std::strcmp(name, "scalar") == 0) {
    requested = Tier::kScalar;
  } else if (std::strcmp(name, "sse41") == 0) {
    requested = Tier::kSse41;
  } else if (std::strcmp(name, "avx2") == 0) {
    requested = Tier::kAvx2;
  }
  // Clamp: forcing a tier the hardware lacks must not SIGILL.
  return static_cast<int>(requested) < static_cast<int>(hw) ? requested : hw;
}

Tier env_tier_cached() {
  static const Tier env = env_capped_tier();
  return env;
}

// -1 = no override; otherwise the forced tier (already clamped).
std::atomic<int> g_override{-1};

}  // namespace

const CpuFeatures& detected_features() {
  static const CpuFeatures features = detect();
  return features;
}

Tier detected_tier() { return tier_from_features(detected_features()); }

Tier active_tier() {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Tier>(forced);
  return env_tier_cached();
}

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kSse41:
      return "sse41";
    case Tier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

ScopedTierOverride::ScopedTierOverride(Tier tier)
    : previous_(g_override.load(std::memory_order_relaxed)) {
  int requested = static_cast<int>(tier);
  const int hw = static_cast<int>(detected_tier());
  if (requested > hw) requested = hw;
  g_override.store(requested, std::memory_order_relaxed);
}

ScopedTierOverride::~ScopedTierOverride() {
  g_override.store(previous_, std::memory_order_relaxed);
}

}  // namespace setint::simd

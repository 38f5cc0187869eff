#include "simd/dispatch.h"

#include <atomic>
#include <cstdlib>

namespace setint::simd {

namespace {

CpuFeatures detect() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(_M_X64)
  // __builtin_cpu_supports reads cpuid once per process under the hood
  // (libgcc caches the feature words after __builtin_cpu_init).
  f.sse4_1 = __builtin_cpu_supports("sse4.1");
  f.pclmul = __builtin_cpu_supports("pclmul");
#endif
  return f;
}

// SETINT_FORCE_SCALAR=1 (any value other than "0"/"") caps dispatch at
// the word loop. Parsed once.
Tier env_capped_tier() {
  const char* scalar = std::getenv("SETINT_FORCE_SCALAR");
  if (scalar != nullptr && scalar[0] != '\0' &&
      !(scalar[0] == '0' && scalar[1] == '\0')) {
    return Tier::kScalar;
  }
  return detected_tier();
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

Tier detected_tier() {
  const CpuFeatures& f = detected_features();
  return f.pclmul && f.sse4_1 ? Tier::kClmul : Tier::kScalar;
}

Tier active_tier() {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Tier>(forced);
  return env_tier_cached();
}

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kClmul:
      return "clmul";
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

// Primality testing and random prime sampling.
//
// Random primes back the FKS universe-compression step (hashing/fks.h),
// where the random prime is what bounds the collision probability; the
// pairwise family uses one fixed prime (hashing/pairwise.h).
//
// Miller-Rabin exponentiation runs in the Montgomery domain
// (hashing/barrett.h) for odd inputs below 2^63.
#pragma once

#include <cstdint>

#include "util/rng.h"

namespace setint::hashing {

// Deterministic Miller-Rabin, exact for all 64-bit inputs (fixed witness
// set {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}).
bool is_prime(std::uint64_t n);

// Smallest prime >= n; throws if none fits in 64 bits.
std::uint64_t next_prime_at_least(std::uint64_t n);

// Uniform-ish random prime in [lo, hi): samples uniform candidates and
// takes the next prime at or after the sample (standard density argument;
// adequate for hash-seed purposes). Requires a prime to exist in range.
std::uint64_t random_prime_in(util::Rng& rng, std::uint64_t lo,
                              std::uint64_t hi);

// Process-wide count of next_prime_at_least calls, for the work counters
// of benchmarks. `misses` counts every call; there is no memo, so `hits`
// and `entries` always read 0.
struct PrimeCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;
};
PrimeCacheStats prime_cache_stats();

// Zeroes the call count.
void prime_cache_clear();

}  // namespace setint::hashing

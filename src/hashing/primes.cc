#include "hashing/primes.h"

#include <atomic>
#include <limits>
#include <stdexcept>

#include "hashing/barrett.h"
#include "hashing/modmath.h"

namespace setint::hashing {

namespace {

constexpr std::uint64_t kWitnesses[] = {2, 3, 5, 7, 11, 13, 17, 19,
                                        23, 29, 31, 37};

// Miller-Rabin witness check in the Montgomery domain: all the squarings
// of the powmod ladder run division-free. Exact for any odd n in [3, 2^63).
bool miller_rabin_witness_mont(const Montgomery64& mont, std::uint64_t n,
                               std::uint64_t a, std::uint64_t d, unsigned r) {
  const std::uint64_t one = mont.to_mont(1);
  const std::uint64_t minus_one = mont.to_mont(n - 1);
  std::uint64_t base = mont.to_mont(a % n);
  std::uint64_t x = one;
  std::uint64_t exp = d;
  while (exp > 0) {
    if (exp & 1) x = mont.mul(x, base);
    base = mont.mul(base, base);
    exp >>= 1;
  }
  if (x == one || x == minus_one) return false;  // not a witness
  for (unsigned i = 1; i < r; ++i) {
    x = mont.mul(x, x);
    if (x == minus_one) return false;
  }
  return true;  // witnesses compositeness
}

// Reference ladder via u128 `%` for the rare n >= 2^63 (outside the
// Montgomery domain's modulus range).
bool miller_rabin_witness_wide(std::uint64_t n, std::uint64_t a,
                               std::uint64_t d, unsigned r) {
  std::uint64_t x = powmod(a % n, d, n);
  if (x == 1 || x == n - 1) return false;
  for (unsigned i = 1; i < r; ++i) {
    x = mulmod(x, x, n);
    if (x == n - 1) return false;
  }
  return true;
}

std::atomic<std::uint64_t> g_next_prime_calls{0};

}  // namespace

bool is_prime(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t p : kWitnesses) {
    if (n == p) return true;
    if (n % p == 0) return false;
  }
  std::uint64_t d = n - 1;
  unsigned r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  if (n < (std::uint64_t{1} << 63)) {
    // n is odd here (even n were divisible by witness 2 above).
    const Montgomery64 mont(n);
    for (std::uint64_t a : kWitnesses) {
      if (miller_rabin_witness_mont(mont, n, a, d, r)) return false;
    }
    return true;
  }
  for (std::uint64_t a : kWitnesses) {
    if (miller_rabin_witness_wide(n, a, d, r)) return false;
  }
  return true;
}

std::uint64_t next_prime_at_least(std::uint64_t n) {
  g_next_prime_calls.fetch_add(1, std::memory_order_relaxed);
  if (n <= 2) return 2;
  std::uint64_t c = n | 1;  // first odd >= n
  while (true) {
    if (is_prime(c)) return c;
    if (c > std::numeric_limits<std::uint64_t>::max() - 2) {
      throw std::overflow_error("next_prime_at_least: no 64-bit prime");
    }
    c += 2;
  }
}

std::uint64_t random_prime_in(util::Rng& rng, std::uint64_t lo,
                              std::uint64_t hi) {
  if (lo >= hi) throw std::invalid_argument("random_prime_in: empty range");
  for (int attempt = 0; attempt < 4096; ++attempt) {
    const std::uint64_t candidate = lo + rng.below(hi - lo);
    const std::uint64_t p = next_prime_at_least(candidate);
    if (p < hi) return p;
  }
  // Range may still contain a prime near its start even if sampling missed.
  const std::uint64_t p = next_prime_at_least(lo);
  if (p < hi) return p;
  throw std::invalid_argument("random_prime_in: no prime in range");
}

PrimeCacheStats prime_cache_stats() {
  PrimeCacheStats stats;
  stats.misses = g_next_prime_calls.load(std::memory_order_relaxed);
  return stats;
}

void prime_cache_clear() {
  g_next_prime_calls.store(0, std::memory_order_relaxed);
}

}  // namespace setint::hashing

// Carter-Wegman pairwise-independent hashing h(x) = ((a*x + b) mod p) mod t.
//
// This is the h: [n] -> [t] the paper invokes in Fact 2.2 and throughout:
// for any x != y, Pr[h(x) = h(y)] <= 2/t (the extra factor of <= 2 comes
// from the final mod t; range sizing in callers accounts for it).
//
// p is one fixed prime, kPrime, above every supported universe; only a and
// b are random. (a*x + b) mod p is pairwise independent over [p) for any
// prime p, so a random prime buys nothing here (docs/PROTOCOL.md, "The
// pairwise family"). Random primes remain where they are the point: the
// FKS compressor (hashing/fks.h).
//
// Evaluation is division-free: the Montgomery context for the a*x product
// and the Lemire reducer for x mod p are built once for kPrime, and each
// instance adds a in Montgomery form and a reducer for t
// (hashing/barrett.h), so the per-element cost is a handful of multiplies.
// The values produced are bit-identical to the plain (a*x + b) % p % t
// formula (tests/hashing_test.cc, bench/exp_cpu.cc E-CPU.1).
#pragma once

#include <cstdint>
#include <span>

#include "hashing/barrett.h"
#include "util/rng.h"

namespace setint::hashing {

class PairwiseHash {
 public:
  // 2^62 + 135, the smallest prime above 2^62 (the largest supported
  // universe), and below 2^63, the Montgomery modulus bound.
  static constexpr std::uint64_t kPrime = (std::uint64_t{1} << 62) + 135;
  static constexpr std::uint64_t kMaxUniverse = std::uint64_t{1} << 62;

  // Hash from [universe) onto [range). Requires universe, range <=
  // kMaxUniverse; draws uniform a in [1, kPrime), b in [0, kPrime).
  static PairwiseHash sample(util::Rng& rng, std::uint64_t universe,
                             std::uint64_t range);

  std::uint64_t operator()(std::uint64_t x) const {
    const std::uint64_t xr = red_p_.mod(x);
    const std::uint64_t ax = mont_.mul(a_mont_, xr);
    // addmod without overflow: both operands are < p.
    const std::uint64_t space = kPrime - ax;
    const std::uint64_t v = b_ >= space ? b_ - space : ax + b_;
    return red_t_.mod(v);
  }

  // Array-batched evaluation: out[i] = (*this)(xs[i]). Requires
  // out.size() >= xs.size().
  void hash_many(std::span<const std::uint64_t> xs,
                 std::span<std::uint64_t> out) const;

  std::uint64_t range() const { return t_; }
  // Seed constants; reference baselines in tests and the CPU bench
  // recompute ((a*x + b) % kPrime) % t from these.
  std::uint64_t multiplier() const { return a_; }
  std::uint64_t offset() const { return b_; }

  // Pairwise collision bound for this instance: Pr[h(x)=h(y)] for x != y.
  double collision_probability() const;

 private:
  PairwiseHash(std::uint64_t a, std::uint64_t b, std::uint64_t t);

  std::uint64_t a_;
  std::uint64_t b_;
  std::uint64_t t_;

  // Reduction state: red_p_ and mont_ are copies of the shared kPrime
  // context, red_t_ and a_mont_ are derived from t and a.
  Reducer64 red_p_;
  Reducer64 red_t_;
  Montgomery64 mont_;
  std::uint64_t a_mont_;
};

}  // namespace setint::hashing

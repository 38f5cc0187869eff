#include "hashing/pairwise.h"

#include <algorithm>
#include <stdexcept>

namespace setint::hashing {

namespace {

// The kPrime reduction state, built on first use and copied into every
// instance.
struct PrimeContext {
  Reducer64 red_p{PairwiseHash::kPrime};
  Montgomery64 mont{PairwiseHash::kPrime};
};

const PrimeContext& prime_context() {
  static const PrimeContext context;
  return context;
}

}  // namespace

PairwiseHash::PairwiseHash(std::uint64_t a, std::uint64_t b, std::uint64_t t)
    : a_(a),
      b_(b),
      t_(t),
      red_p_(prime_context().red_p),
      red_t_(t),
      mont_(prime_context().mont),
      a_mont_(mont_.to_mont(a)) {}

PairwiseHash PairwiseHash::sample(util::Rng& rng, std::uint64_t universe,
                                  std::uint64_t range) {
  if (range == 0) throw std::invalid_argument("PairwiseHash: range == 0");
  if (std::max(universe, range) > kMaxUniverse) {
    throw std::invalid_argument("PairwiseHash: universe too large");
  }
  const std::uint64_t a = 1 + rng.below(kPrime - 1);
  const std::uint64_t b = rng.below(kPrime);
  return PairwiseHash(a, b, range);
}

void PairwiseHash::hash_many(std::span<const std::uint64_t> xs,
                             std::span<std::uint64_t> out) const {
  if (out.size() < xs.size()) {
    throw std::invalid_argument("PairwiseHash::hash_many: output too small");
  }
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = (*this)(xs[i]);
}

double PairwiseHash::collision_probability() const {
  // (a*x+b) mod p is a pairwise-uniform injection into [p); folding mod t
  // makes at most ceil(p/t) values coincide per residue.
  const double buckets_per_residue =
      static_cast<double>((kPrime + t_ - 1) / t_);
  return buckets_per_residue / static_cast<double>(kPrime);
}

}  // namespace setint::hashing

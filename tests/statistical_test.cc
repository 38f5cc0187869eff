// Statistical validation of the paper's error bounds, powered by the
// batch engine so thousands of sessions stay fast.
//
// Each suite runs >= 2000 independent seeded sessions and checks the
// OBSERVED failure rate against the paper's bound plus a Chernoff-style
// margin:
//
//   * Equality (Fact 3.5): one-sided — equal inputs never fail; unequal
//     inputs declared equal with probability <= 2^-b.
//   * Basic-Intersection (Lemma 3.3): candidates are ALWAYS a superset
//     of the true intersection (and a subset of the own input); they
//     differ from S cap T with probability <= target_failure.
//   * End-to-end facade: exact and certificate-verified every time on a
//     reliable channel; re-runs (failed certificates) occur at a
//     1/poly(k) rate.
//
// All seeds derive from fixed masters, so these tests are deterministic;
// the margins are what make the assertions robust to re-parameterization
// of the protocols rather than to run-to-run noise.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/basic_intersection.h"
#include "eq/equality.h"
#include "runtime/batch.h"
#include "setint.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "util/bitio.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

// Threads for the statistical batches: exercise the parallel path (the
// suite doubles as a TSan workload via the ci.sh concurrency lane).
constexpr int kThreads = 4;

// Upper tolerance for the number of failures among n Bernoulli(p) trials:
// mean + 4 standard-deviation-scale slack + an absolute floor for tiny
// np. With 4*sqrt(np) slack the chance of a false alarm at the true rate
// p is < 1e-4 even before the +8 floor; seeds are fixed anyway, so this
// margin guards against protocol re-parameterization, not run noise.
double chernoff_upper(double n, double p) {
  const double mean = n * p;
  return mean + 4.0 * std::sqrt(mean) + 8.0;
}

// ---------- Fact 3.5: equality ----------

// Sessions of eq::equality_test, at `hash_bits` bits, that declared the
// pair make_pair(rng, i) equal; every pair it builds is unequal.
template <typename MakePair>
std::uint64_t count_false_equal(std::size_t sessions, std::size_t hash_bits,
                                std::uint64_t master, MakePair make_pair) {
  std::atomic<std::uint64_t> false_equal{0};
  runtime::run_sessions(sessions, kThreads, [&](std::size_t i) {
    const std::uint64_t seed = util::mix64(master, i);
    util::Rng rng(seed);
    const auto [xa, xb] = make_pair(rng, i);
    sim::Channel ch;
    sim::SharedRandomness shared(seed);
    if (eq::equality_test(ch, shared, /*nonce=*/i, xa, xb, hash_bits)) {
      false_equal.fetch_add(1);
    }
  });
  return false_equal.load();
}

util::BitBuffer random_bits(util::Rng& rng, std::size_t n) {
  util::BitBuffer out;
  for (std::size_t i = 0; i < n; ++i) out.append_bit(rng.coin());
  return out;
}

constexpr std::size_t kFalsePositiveSessions = 4000;
constexpr std::size_t kFalsePositiveBits = 6;  // error <= 2^-6 = 1/64

void expect_within_chernoff(std::uint64_t false_equal, const char* what) {
  const double bound = chernoff_upper(
      kFalsePositiveSessions, std::pow(2.0, -double(kFalsePositiveBits)));
  EXPECT_LE(static_cast<double>(false_equal), bound)
      << what << ": " << false_equal << " false positives in "
      << kFalsePositiveSessions << " sessions (bound " << bound << ")";
}

TEST(StatisticalEquality, FalsePositiveRateUnderTwoToMinusB) {
  // Distinct 48-bit contents (forced different in the low bits).
  expect_within_chernoff(
      count_false_equal(kFalsePositiveSessions, kFalsePositiveBits, 0xEC0A57,
                        [](util::Rng& rng, std::size_t) {
                          util::BitBuffer xa;
                          util::BitBuffer xb;
                          const std::uint64_t base =
                              rng.next() & ((std::uint64_t{1} << 48) - 1);
                          xa.append_bits(base, 48);
                          xb.append_bits(base ^ (1 + rng.below(255)), 48);
                          return std::pair{xa, xb};
                        }),
      "single-word");
}

TEST(StatisticalEquality, MultiWordFalsePositiveRateUnderTwoToMinusB) {
  // 65..640-bit strings differing in one random bit.
  expect_within_chernoff(
      count_false_equal(kFalsePositiveSessions, kFalsePositiveBits, 0xEC0A59,
                        [](util::Rng& rng, std::size_t) {
                          const util::BitBuffer xa =
                              random_bits(rng, 65 + rng.below(576));
                          util::BitBuffer xb = xa;
                          xb.toggle_bit(rng.below(xa.size_bits()));
                          return std::pair{xa, xb};
                        }),
      "multi-word");
}

TEST(StatisticalEquality, LengthOnlyPairsUnderTwoToMinusB) {
  // x against x||0 and x||0^64: the strings differ only in length.
  for (const std::size_t zeros : {1u, 64u}) {
    expect_within_chernoff(
        count_false_equal(kFalsePositiveSessions, kFalsePositiveBits,
                          0xEC0A5A + zeros,
                          [zeros](util::Rng& rng, std::size_t) {
                            const util::BitBuffer xa =
                                random_bits(rng, rng.below(200));
                            util::BitBuffer xb = xa;
                            for (std::size_t z = 0; z < zeros; ++z) {
                              xb.append_bit(false);
                            }
                            return std::pair{xa, xb};
                          }),
        zeros == 1 ? "x vs x||0" : "x vs x||0^64");
  }
}

TEST(StatisticalEquality, WideHashesAreContentSensitive) {
  // At b = 65..130 a false positive has probability <= 2^-65: none of
  // these sessions may declare its one-bit-apart pair equal.
  for (std::size_t bits = 65; bits <= 130; ++bits) {
    EXPECT_EQ(count_false_equal(32, bits, 0xEC0A5C + bits,
                                [](util::Rng& rng, std::size_t) {
                                  const util::BitBuffer xa =
                                      random_bits(rng, 1 + rng.below(300));
                                  util::BitBuffer xb = xa;
                                  xb.toggle_bit(rng.below(xa.size_bits()));
                                  return std::pair{xa, xb};
                                }),
              0u)
        << "b = " << bits;
  }
}

TEST(StatisticalEquality, EqualInputsNeverFail) {
  // The one-sided half of Fact 3.5: x == y  ->  "equal" with probability
  // 1. Any counterexample is a hard bug, so this asserts zero failures.
  constexpr std::size_t kSessions = 2000;
  std::atomic<std::uint64_t> false_unequal{0};
  runtime::run_sessions(kSessions, kThreads, [&](std::size_t i) {
    const std::uint64_t seed = util::mix64(0xEC0A58, i);
    util::Rng rng(seed);
    util::BitBuffer x;
    x.append_bits(rng.next(), 64);
    x.append_bits(rng.next() & 0x7f, 7);  // non-word-aligned length
    sim::Channel ch;
    sim::SharedRandomness shared(seed);
    if (!eq::equality_test(ch, shared, /*nonce=*/i, x, x, 4)) {
      false_unequal.fetch_add(1);
    }
  });
  EXPECT_EQ(false_unequal.load(), 0u);
}

// ---------- Lemma 3.3: Basic-Intersection ----------

TEST(StatisticalBasicIntersection, ErrorRateUnderTarget) {
  constexpr std::size_t kSessions = 2500;
  constexpr double kTargetFailure = 0.05;
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> superset_violations{0};
  runtime::run_sessions(kSessions, kThreads, [&](std::size_t i) {
    const std::uint64_t seed = util::mix64(0xB0A51C, i);
    util::Rng wrng(seed);
    const std::size_t k = 24 + wrng.below(40);
    const util::SetPair p =
        util::random_set_pair(wrng, 1u << 20, k, wrng.below(k + 1));
    sim::Channel ch;
    sim::SharedRandomness shared(seed);
    const core::CandidatePair out = core::basic_intersection(
        ch, shared, /*nonce=*/i, 1u << 20, p.s, p.t, kTargetFailure);
    // Always-true structural guarantees (probability 1, not 1 - eps).
    if (!util::is_subset(out.s_candidate, p.s) ||
        !util::is_subset(out.t_candidate, p.t) ||
        !util::is_subset(p.expected_intersection, out.s_candidate) ||
        !util::is_subset(p.expected_intersection, out.t_candidate)) {
      superset_violations.fetch_add(1);
    }
    if (out.s_candidate != p.expected_intersection ||
        out.t_candidate != p.expected_intersection) {
      wrong.fetch_add(1);
    }
  });
  EXPECT_EQ(superset_violations.load(), 0u)
      << "Lemma 3.3's subset/superset guarantees are not statistical";
  const double bound = chernoff_upper(kSessions, kTargetFailure);
  EXPECT_LE(static_cast<double>(wrong.load()), bound)
      << wrong.load() << " wrong candidates in " << kSessions
      << " sessions (target " << kTargetFailure << ", bound " << bound << ")";
}

// ---------- end-to-end facade ----------

TEST(StatisticalFacade, AlwaysExactAndRarelyRetries) {
  constexpr std::size_t kSessions = 2000;
  std::vector<util::SetPair> pairs;
  pairs.reserve(kSessions);
  util::Rng wrng(0xFACADE);
  std::vector<Instance> instances;
  for (std::size_t i = 0; i < kSessions; ++i) {
    const std::size_t k = 32 + wrng.below(64);
    pairs.push_back(util::random_set_pair(wrng, 1u << 22, k, wrng.below(k)));
  }
  instances.reserve(kSessions);
  for (const util::SetPair& p : pairs) instances.push_back({p.s, p.t});

  IntersectOptions options;
  options.universe = 1u << 22;
  options.seed = 0x57A7;
  const BatchResult out = run_batch(options, instances, {.threads = kThreads});

  std::uint64_t reruns = 0;
  for (std::size_t i = 0; i < kSessions; ++i) {
    const IntersectResult& r = out.results[i];
    // On a reliable channel the amplified run is exact every time: a
    // failing certificate re-runs with fresh randomness and the
    // deterministic backstop guarantees termination.
    ASSERT_EQ(r.intersection, pairs[i].expected_intersection) << i;
    ASSERT_TRUE(r.verified) << i;
    ASSERT_FALSE(r.degraded) << i;
    if (r.repetitions > 1) ++reruns;
  }
  // Certificate failures (the only source of repetitions here) happen at
  // a 1/poly(k) rate; 5% is a generous poly bound at k >= 32.
  const double bound = chernoff_upper(kSessions, 0.05);
  EXPECT_LE(static_cast<double>(reruns), bound)
      << reruns << " sessions needed re-runs in " << kSessions;
}

}  // namespace
}  // namespace setint

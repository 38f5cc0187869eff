#include "core/planner.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/bucket_eq.h"
#include "core/deterministic_exchange.h"
#include "core/one_round_hash.h"
#include "core/toy_protocol.h"
#include "core/verification_tree.h"
#include "util/iterated_log.h"

namespace setint::core {

namespace {

void validate(const PlannerQuery& query) {
  if (query.universe == 0 || query.k == 0) {
    throw std::invalid_argument("planner: universe and k must be positive");
  }
}

double log2_clamped(double v) { return std::log2(std::max(2.0, v)); }

}  // namespace

double estimate_bits(PlanKind kind, const PlannerQuery& query, int rounds_r) {
  validate(query);
  const double k = static_cast<double>(query.k);
  const double n = static_cast<double>(query.universe);
  // Calibrated against EXPERIMENTS.md at 50% overlap; validated to within
  // a factor of two by tests/planner_test.cc.
  switch (kind) {
    case PlanKind::kDeterministicExchange: {
      // Rice-coded set one way plus the (~half-size) intersection reply.
      const double per = std::max(1.0, std::log2(n / k));
      return k * (1.5 * per + 4.5);
    }
    case PlanKind::kOneRoundHash: {
      const double width = std::max(16.0, 3.0 * log2_clamped(k));
      return 2.0 * k * width + 16;
    }
    case PlanKind::kToyBuckets: {
      return k * (3.0 * log2_clamped(log2_clamped(k)) + 16.0);
    }
    case PlanKind::kBucketEq: {
      return k * 18.5 + 64;
    }
    case PlanKind::kVerificationTree: {
      if (rounds_r <= 1) {
        return estimate_bits(PlanKind::kOneRoundHash, query, 1);
      }
      const double tower = util::iterated_log(rounds_r, k);
      return k * (4.0 * tower + 5.0 * rounds_r + 10.0);
    }
  }
  throw std::logic_error("planner: unknown kind");
}

double estimate_local_ns(PlanKind kind, const PlannerQuery& query,
                         int rounds_r) {
  validate(query);
  // Per-element throughput constants (ns/element on the reference box,
  // BENCH_cpu.json E-CPU.1 and E-CPU.5).
  const double hash_ns = 5.0;
  const double isect_ns = 3.0;
  const double k = static_cast<double>(query.k);
  switch (kind) {
    case PlanKind::kDeterministicExchange:
      // One adaptive intersection over ~2k elements plus Rice coding.
      return k * (2.0 * isect_ns + 8.0);
    case PlanKind::kOneRoundHash:
      // Both parties hash k elements; verification re-intersects.
      return k * (2.0 * hash_ns + isect_ns + 4.0);
    case PlanKind::kToyBuckets:
      // Two expected verify/re-run sweeps: hashing both sides plus the
      // per-bucket reconcile intersections.
      return k * (4.0 * hash_ns + 2.0 * isect_ns + 8.0);
    case PlanKind::kBucketEq:
      // big_h then h over both inputs (4 hash passes), bucket build, and
      // the amortized-EQ instance stream.
      return k * (4.0 * hash_ns + 24.0);
    case PlanKind::kVerificationTree: {
      if (rounds_r <= 1) {
        return estimate_local_ns(PlanKind::kOneRoundHash, query, 1);
      }
      // Each of the r stages re-hashes the surviving candidates.
      return k * (2.0 * static_cast<double>(rounds_r) * hash_ns + 12.0);
    }
  }
  throw std::logic_error("planner: unknown kind");
}

std::uint64_t estimate_rounds(PlanKind kind, const PlannerQuery& query,
                              int rounds_r) {
  validate(query);
  switch (kind) {
    case PlanKind::kDeterministicExchange:
    case PlanKind::kOneRoundHash:
      return 2;
    case PlanKind::kToyBuckets:
      return 16;  // measured worst case: 4 verify/re-run sweeps of 4 rounds
    case PlanKind::kBucketEq: {
      const auto lg = static_cast<std::uint64_t>(
          log2_clamped(6.0 * static_cast<double>(query.k)));
      return 2 + 5 * lg;
    }
    case PlanKind::kVerificationTree:
      return rounds_r <= 1 ? 2
                           : static_cast<std::uint64_t>(3 * rounds_r + 1);
  }
  throw std::logic_error("planner: unknown kind");
}

std::vector<Plan> enumerate_plans(const PlannerQuery& query) {
  validate(query);
  std::vector<Plan> plans;
  auto add = [&](PlanKind kind, int r, std::string description) {
    Plan plan;
    plan.kind = kind;
    plan.rounds_r = r;
    plan.estimated_bits = estimate_bits(kind, query, r);
    plan.estimated_rounds = estimate_rounds(kind, query, r);
    plan.estimated_local_ns = estimate_local_ns(kind, query, r);
    plan.description = std::move(description);
    if (query.round_budget == 0 ||
        plan.estimated_rounds <= query.round_budget) {
      plans.push_back(std::move(plan));
    }
  };
  add(PlanKind::kDeterministicExchange, 0, "deterministic exchange");
  add(PlanKind::kOneRoundHash, 0, "one-round hashing");
  add(PlanKind::kToyBuckets, 0, "bucketed verify/re-run (k loglog k)");
  add(PlanKind::kBucketEq, 0, "bucketed amortized equality (Thm 3.1)");
  const int max_r = std::max(
      2, util::log_star(static_cast<double>(query.k)) + 1);
  for (int r = 2; r <= max_r; ++r) {
    add(PlanKind::kVerificationTree, r,
        "verification tree, r = " + std::to_string(r));
  }
  // Bits first (communication is the paper's currency); ties break toward
  // the plan that is locally cheaper.
  std::sort(plans.begin(), plans.end(), [](const Plan& a, const Plan& b) {
    if (a.estimated_bits != b.estimated_bits) {
      return a.estimated_bits < b.estimated_bits;
    }
    return a.estimated_local_ns < b.estimated_local_ns;
  });
  return plans;
}

Plan choose_plan(const PlannerQuery& query) {
  const std::vector<Plan> plans = enumerate_plans(query);
  if (plans.empty()) {
    throw std::invalid_argument("planner: no plan fits the round budget");
  }
  return plans.front();
}

std::unique_ptr<IntersectionProtocol> instantiate(const Plan& plan) {
  switch (plan.kind) {
    case PlanKind::kDeterministicExchange:
      return std::make_unique<DeterministicExchangeProtocol>();
    case PlanKind::kOneRoundHash:
      return std::make_unique<OneRoundHashProtocol>();
    case PlanKind::kToyBuckets:
      return std::make_unique<ToyBucketProtocol>();
    case PlanKind::kBucketEq:
      return std::make_unique<BucketEqProtocol>();
    case PlanKind::kVerificationTree: {
      VerificationTreeParams params;
      params.rounds_r = plan.rounds_r;
      return std::make_unique<VerificationTreeProtocol>(params);
    }
  }
  throw std::logic_error("planner: unknown kind");
}

}  // namespace setint::core

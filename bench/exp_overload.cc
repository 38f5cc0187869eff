// O — overload governance: offered load x fault rate x budget against
// the degradation ladder, circuit breakers and the shared retry pool
// (docs/ROBUSTNESS.md § overload governance).
//
// Sweeps and acceptance gates (all deterministic functions of --seed;
// exit code 1 if any fails):
//   * O1 at EVERY swept (fault rate x budget) point there is never an
//     unflagged wrong answer — every non-degraded, non-refused result is
//     exact, every degraded result is a superset of the true
//     intersection, every refusal is empty and flagged;
//   * O2 with the circuit breaker enabled, total bits spent on a
//     permanently-dead link are STRICTLY lower than under the PR-2 flat
//     retry policy on identical schedules (that is what the breaker is
//     for);
//   * O4 sessions whose budget is never hit are bit-identical (bits,
//     rounds, repetitions, answer) to ungoverned sessions — governance
//     must be free until it fires.
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "core/budget.h"
#include "multiparty/coordinator.h"
#include "obs/tracer.h"
#include "setint.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace {

using namespace setint;

// Per-sweep-point outcome tally over the degradation ladder.
struct LadderTally {
  int trials = 0;
  int exact = 0;             // DegradeRung::kExact
  int flagged_superset = 0;  // DegradeRung::kFlaggedSuperset
  int input_fallback = 0;    // DegradeRung::kInputFallback
  int refused = 0;           // DegradeRung::kRefused
  int unflagged_wrong = 0;      // gate O1: must stay 0
  int superset_violations = 0;  // gate O1: must stay 0
  std::uint64_t total_bits = 0;
  std::uint64_t total_rounds = 0;
  std::uint64_t budget_trips = 0;
};

void observe(LadderTally& tally, const IntersectResult& result,
             util::SetView expected) {
  switch (result.rung) {
    case core::DegradeRung::kExact:
      tally.exact += 1;
      break;
    case core::DegradeRung::kFlaggedSuperset:
      tally.flagged_superset += 1;
      break;
    case core::DegradeRung::kInputFallback:
      tally.input_fallback += 1;
      break;
    case core::DegradeRung::kRefused:
      tally.refused += 1;
      break;
  }
  if (result.refused) {
    // A refusal carries no answer: non-empty output would be a contract
    // violation, but the superset check does not apply.
    if (!result.intersection.empty()) tally.unflagged_wrong += 1;
  } else {
    if (!result.degraded && result.intersection != util::Set(expected.begin(),
                                                             expected.end())) {
      tally.unflagged_wrong += 1;
    }
    if (!util::is_subset(expected, result.intersection)) {
      tally.superset_violations += 1;
    }
  }
  if (result.budget_reason != core::BudgetDimension::kNone) {
    tally.budget_trips += 1;
  }
  tally.total_bits += result.bits;
  tally.total_rounds += result.rounds;
}

void add_ladder_row(bench::Table& table, std::vector<std::string> prefix,
                    const LadderTally& c) {
  prefix.push_back(bench::fmt_u64(static_cast<std::uint64_t>(c.trials)));
  prefix.push_back(bench::fmt_u64(static_cast<std::uint64_t>(c.exact)));
  prefix.push_back(
      bench::fmt_u64(static_cast<std::uint64_t>(c.flagged_superset)));
  prefix.push_back(
      bench::fmt_u64(static_cast<std::uint64_t>(c.input_fallback)));
  prefix.push_back(bench::fmt_u64(static_cast<std::uint64_t>(c.refused)));
  prefix.push_back(
      bench::fmt_u64(static_cast<std::uint64_t>(c.unflagged_wrong)));
  prefix.push_back(
      bench::fmt_u64(static_cast<std::uint64_t>(c.superset_violations)));
  prefix.push_back(bench::fmt_u64(c.budget_trips));
  prefix.push_back(bench::fmt_u64(
      c.total_bits / static_cast<std::uint64_t>(std::max(1, c.trials))));
  table.add_row(std::move(prefix));
}

const std::vector<std::string> kLadderColumns = {
    "trials",  "exact",           "flagged superset",
    "fallback", "refused",         "unflagged wrong",
    "superset violations", "budget trips", "avg bits"};

std::vector<std::string> with_prefix(std::vector<std::string> prefix) {
  std::vector<std::string> columns = std::move(prefix);
  columns.insert(columns.end(), kLadderColumns.begin(), kLadderColumns.end());
  return columns;
}

// The O2 star: a 4-player coordinator run whose fault plan kills link
// (0, 3) with a drop-everything overlay while the other links stay clean.
sim::FaultPlan dead_link_plan(std::uint64_t seed) {
  sim::FaultSpec clean;
  clean.seed = seed;
  sim::FaultPlan plan(clean);
  sim::FaultSpec drop_all;
  drop_all.drop_prob = 1.0;
  drop_all.seed = seed ^ 0xD0D0;
  plan.set_link_faults(0, 3, drop_all);
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace setint;
  auto rep = bench::Reporter::FromArgs("overload", argc, argv);

  const std::uint64_t universe = std::uint64_t{1} << 16;
  const std::size_t k = 32;
  int violations = 0;

  // O1: fault rate x budget arm — the full degradation ladder under
  // combined pressure. Budgets are enforced cooperatively, so a tight cap
  // descends the ladder instead of producing a wrong (or silently
  // truncated) answer, at every fault rate.
  {
    struct BudgetArm {
      const char* name;
      core::SessionBudgetSpec spec;
    };
    std::vector<BudgetArm> arms;
    arms.push_back({"unlimited", {}});
    {
      core::SessionBudgetSpec tight;
      tight.max_bits = 512;
      arms.push_back({"bits<=512", tight});
    }
    {
      core::SessionBudgetSpec deadline;
      deadline.deadline_ticks = 6;
      arms.push_back({"deadline 6", deadline});
    }
    {
      core::SessionBudgetSpec refuse;
      refuse.max_bits = 512;
      refuse.refuse_on_exhaustion = true;
      arms.push_back({"bits<=512 refuse", refuse});
    }

    auto& table = rep.table(
        "O1: fault rate x budget -> degradation ladder  (k=32, n=2^16)",
        with_prefix({"drop/msg", "budget"}));
    const std::vector<double> rates = bench::sizes<double>(
        rep.options(), {0.0, 0.25, 1.0}, {0.0, 1.0});
    const int trials = rep.smoke() ? 25 : 120;
    for (double rate : rates) {
      for (const BudgetArm& arm : arms) {
        LadderTally tally;
        tally.trials = trials;
        const std::uint64_t salt =
            0x100 + static_cast<std::uint64_t>(rate * 100) * 16 +
            static_cast<std::uint64_t>(&arm - arms.data());
        util::Rng wrng(rep.seed_for(salt, 0xA0));
        for (int t = 0; t < trials; ++t) {
          const util::SetPair pair =
              util::random_set_pair(wrng, universe, k, k / 4);
          std::unique_ptr<sim::FaultPlan> faults;
          if (rate > 0.0) {
            sim::FaultSpec fs;
            fs.drop_prob = rate;
            fs.seed = rep.seed_for(salt, 0xFA00 + static_cast<std::uint64_t>(t));
            faults = std::make_unique<sim::FaultPlan>(fs);
          }
          obs::Tracer tracer;
          IntersectOptions options;
          options.universe = universe;
          options.seed =
              rep.seed_for(salt, 0x5E00 + static_cast<std::uint64_t>(t));
          options.fault_plan = faults.get();
          options.tracer = &tracer;
          options.budget = arm.spec;
          // Keep retry spend bounded at drop=1.0 so the sweep stays fast;
          // the flat default (40) is sized for flip noise, not black holes.
          options.retry.max_attempts = 6;
          options.retry.backoff_rounds = 2;
          options.retry.backoff_multiplier = 2.0;
          options.retry.backoff_jitter = 0.25;
          const IntersectResult result = intersect(pair.s, pair.t, options);
          observe(tally, result, pair.expected_intersection);
          rep.merge_metrics(tracer.metrics());
        }
        violations += tally.unflagged_wrong + tally.superset_violations;
        add_ladder_row(table, {bench::fmt_double(rate, 2), arm.name}, tally);
      }
    }
    table.print();
  }

  // O2: permanently-dead link, PR-2 flat retry vs circuit breaker, on
  // identical fault schedules. The gate: the breaker arm spends strictly
  // fewer total bits — the retries it refuses to burn on a link the
  // evidence says is dead.
  bool breaker_wins = true;
  {
    auto& table = rep.table(
        "O2: dead link (0,3), flat retry vs circuit breaker  "
        "(4 players, k=24, n=2^14)",
        {"arm", "trials", "total bits", "total repetitions", "breaker opens",
         "degraded pairs", "superset violations"});
    const int trials = rep.smoke() ? 8 : 40;
    const std::uint64_t mp_universe = std::uint64_t{1} << 14;
    std::uint64_t arm_bits[2] = {0, 0};
    for (const bool with_breaker : {false, true}) {
      std::uint64_t total_bits = 0;
      std::uint64_t total_reps = 0;
      std::uint64_t opens = 0;
      std::uint64_t degraded_pairs = 0;
      int mp_violations = 0;
      util::Rng wrng(rep.seed_for(0x200, 0xB0));  // same instances both arms
      for (int t = 0; t < trials; ++t) {
        const util::MultiSetInstance instance = util::random_multi_sets(
            wrng, mp_universe, /*players=*/4, /*k=*/24, /*shared=*/6);
        const std::uint64_t session_seed =
            rep.seed_for(0x210, static_cast<std::uint64_t>(t));
        sim::FaultPlan plan =
            dead_link_plan(rep.seed_for(0x220, static_cast<std::uint64_t>(t)));
        obs::Tracer tracer;
        sim::Network network(4);
        network.set_tracer(&tracer);
        sim::SharedRandomness shared(session_seed);
        multiparty::MultipartyParams params;
        params.fault_plan = &plan;
        params.retry.max_attempts = 8;
        params.retry.degraded_attempts = 1;
        if (with_breaker) params.breaker.failure_threshold = 2;
        const multiparty::MultipartyResult result =
            multiparty::coordinator_intersection(network, shared, mp_universe,
                                                 instance.sets, params);
        if (!util::is_subset(instance.expected_intersection,
                             result.intersection)) {
          mp_violations += 1;
        }
        total_bits += network.total_bits();
        total_reps += result.total_repetitions;
        opens += result.breaker_opens;
        degraded_pairs += result.degraded_pairs;
        rep.merge_metrics(tracer.metrics());
      }
      violations += mp_violations;
      arm_bits[with_breaker ? 1 : 0] = total_bits;
      table.add_row({with_breaker ? "breaker (threshold 2)" : "flat retry",
                     bench::fmt_u64(static_cast<std::uint64_t>(trials)),
                     bench::fmt_u64(total_bits), bench::fmt_u64(total_reps),
                     bench::fmt_u64(opens), bench::fmt_u64(degraded_pairs),
                     bench::fmt_u64(static_cast<std::uint64_t>(mp_violations))});
    }
    breaker_wins = arm_bits[1] < arm_bits[0];
    table.print();
    std::printf("\nbreaker spends strictly fewer bits on the dead link than "
                "flat retry: %s\n",
                breaker_wins ? "YES" : "NO");
  }

  // O3: offered load x shared retry pool. Every link is lossy, so pair
  // sessions compete for retry tokens; the pool bounds the run's total
  // retry spend and admission control sheds late pairs instead of letting
  // them queue on a drained pool. Honest accounting is the invariant:
  // shed + refused + degraded pairs all flagged, answer still a superset.
  {
    auto& table = rep.table(
        "O3: offered load x retry pool  (lossy links drop=0.4, k=24, n=2^14)",
        {"players", "pool", "shed", "degraded pairs", "pool denials",
         "total repetitions", "superset violations"});
    const std::vector<std::size_t> loads = bench::sizes<std::size_t>(
        rep.options(), {4, 8, 16}, {4, 8});
    const int trials = rep.smoke() ? 6 : 25;
    const std::uint64_t mp_universe = std::uint64_t{1} << 14;
    for (std::size_t players : loads) {
      for (const std::uint64_t pool_capacity : {std::uint64_t{0},
                                                std::uint64_t{3 * players}}) {
        std::uint64_t shed = 0;
        std::uint64_t degraded_pairs = 0;
        std::uint64_t pool_denials = 0;
        std::uint64_t total_reps = 0;
        int mp_violations = 0;
        util::Rng wrng(rep.seed_for(0x300 + players, pool_capacity));
        for (int t = 0; t < trials; ++t) {
          const util::MultiSetInstance instance = util::random_multi_sets(
              wrng, mp_universe, players, /*k=*/24, /*shared=*/6);
          sim::FaultSpec lossy;
          lossy.drop_prob = 0.4;
          lossy.seed = rep.seed_for(0x310 + players,
                                    static_cast<std::uint64_t>(t));
          sim::FaultPlan faults(lossy);
          const std::uint64_t session_seed = rep.seed_for(
              0x320 + players,
              pool_capacity * 1000 + static_cast<std::uint64_t>(t));
          obs::Tracer tracer;
          sim::Network network(players);
          network.set_tracer(&tracer);
          sim::SharedRandomness shared(session_seed);
          multiparty::MultipartyParams params;
          params.fault_plan = &faults;
          params.retry.max_attempts = 6;
          params.retry.degraded_attempts = 1;
          params.retry_pool_attempts = pool_capacity;
          params.admission.critical_fraction = 0.5;
          params.admission.seed = session_seed;
          const multiparty::MultipartyResult result =
              multiparty::coordinator_intersection(
                  network, shared, mp_universe, instance.sets, params);
          if (!util::is_subset(instance.expected_intersection,
                               result.intersection)) {
            mp_violations += 1;
          }
          shed += result.shed_pairs;
          degraded_pairs += result.degraded_pairs;
          pool_denials += result.pool_retry_denials;
          total_reps += result.total_repetitions;
          rep.merge_metrics(tracer.metrics());
        }
        violations += mp_violations;
        table.add_row(
            {bench::fmt_u64(players),
             pool_capacity == 0 ? "unlimited" : bench::fmt_u64(pool_capacity),
             bench::fmt_u64(shed), bench::fmt_u64(degraded_pairs),
             bench::fmt_u64(pool_denials), bench::fmt_u64(total_reps),
             bench::fmt_u64(static_cast<std::uint64_t>(mp_violations))});
      }
    }
    table.print();
  }

  // O4: governance must be free until it fires. Clean channel, generous
  // budget: every (bits, rounds, repetitions, answer) tuple must match the
  // ungoverned run exactly — the facade-level face of the golden-digest
  // bit-identity contract (tests/golden_test.cc pins the transcripts
  // themselves with governance off).
  bool unhit_budget_identical = true;
  {
    auto& table = rep.table(
        "O4: unhit budget vs no budget  (clean channel, k=32, n=2^16)",
        {"trials", "identical runs", "mismatches"});
    const int trials = rep.smoke() ? 15 : 60;
    int identical = 0;
    util::Rng wrng(rep.seed_for(0x400, 0xC0));
    for (int t = 0; t < trials; ++t) {
      const util::SetPair pair = util::random_set_pair(wrng, universe, k, k / 4);
      IntersectOptions plain;
      plain.universe = universe;
      plain.seed = rep.seed_for(0x410, static_cast<std::uint64_t>(t));
      const IntersectResult base = intersect(pair.s, pair.t, plain);
      IntersectOptions governed = plain;
      governed.budget.max_bits = std::uint64_t{1} << 30;
      governed.budget.max_rounds = std::uint64_t{1} << 20;
      const IntersectResult gov = intersect(pair.s, pair.t, governed);
      const bool same = gov.bits == base.bits && gov.rounds == base.rounds &&
                        gov.repetitions == base.repetitions &&
                        gov.intersection == base.intersection &&
                        gov.rung == core::DegradeRung::kExact &&
                        gov.budget_reason == core::BudgetDimension::kNone;
      if (same) {
        identical += 1;
      } else {
        unhit_budget_identical = false;
      }
    }
    table.add_row({bench::fmt_u64(static_cast<std::uint64_t>(trials)),
                   bench::fmt_u64(static_cast<std::uint64_t>(identical)),
                   bench::fmt_u64(static_cast<std::uint64_t>(
                       trials - identical))});
    table.print();
  }

  std::printf("\nSafety held at every swept point (no unflagged wrong "
              "answers, no superset violations): %s\n",
              violations == 0 ? "YES" : "NO");
  rep.note("safety_violations", violations);
  rep.note("breaker_beats_flat_retry", breaker_wins);
  rep.note("unhit_budget_identical", unhit_budget_identical);
  const bool ok = violations == 0 && breaker_wins && unhit_budget_identical;
  return rep.finish(ok ? 0 : 1);
}

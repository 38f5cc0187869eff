// C — chaos engineering: crash-restart, partitions and bursty links
// against the checkpoint/resume recovery layer (docs/ROBUSTNESS.md §
// crash faults).
//
// Sweeps crash rate x partition length x burst profile and pins the
// safety and efficiency claims end-to-end:
//   * at ANY chaos intensity there is never an unflagged wrong answer —
//     every non-degraded result is exact, every degraded result is a
//     superset of the true intersection (exit code 1 otherwise), and
//   * checkpointed recovery replays STRICTLY fewer bits than full-session
//     retry under identical chaos schedules at crash_prob <= 0.05 (the
//     whole point of phase-boundary checkpoints; also gated).
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "multiparty/coordinator.h"
#include "obs/tracer.h"
#include "setint.h"
#include "sim/chaos.h"
#include "sim/network.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace {

using namespace setint;

struct ChaosTally {
  int trials = 0;
  int verified = 0;
  int degraded = 0;
  int unflagged_wrong = 0;      // must stay 0: the headline safety claim
  int superset_violations = 0;  // must stay 0: degraded answers are supersets
  std::uint64_t total_bits = 0;
  std::uint64_t total_rounds = 0;
  std::uint64_t total_attempts = 0;
  std::uint64_t total_restarts = 0;
  std::uint64_t total_bits_replayed = 0;
};

// Runs `trials` seeded facade calls, each with a fresh ChaosPlan (and
// optional FaultPlan) derived from the reporter seed, so two arms that
// differ only in `checkpoint` see IDENTICAL chaos schedules — the
// with/without comparison in C1 depends on it.
ChaosTally run_two_party(bench::Reporter& rep, std::uint64_t salt, int trials,
                         sim::ChaosSpec chaos_spec, bool checkpoint,
                         const sim::FaultSpec* faults, std::uint64_t universe,
                         std::size_t k) {
  ChaosTally tally;
  tally.trials = trials;
  util::Rng wrng(rep.seed_for(salt, 0xA0));
  for (int t = 0; t < trials; ++t) {
    const util::SetPair pair = util::random_set_pair(wrng, universe, k, k / 4);
    const std::uint64_t session_seed =
        rep.seed_for(salt, 0x5E00 + static_cast<std::uint64_t>(t));
    chaos_spec.seed = rep.seed_for(salt, 0xC500 + static_cast<std::uint64_t>(t));
    sim::ChaosPlan plan(chaos_spec, session_seed);
    std::unique_ptr<sim::FaultPlan> fault_plan;
    if (faults != nullptr) {
      sim::FaultSpec fs = *faults;
      fs.seed = rep.seed_for(salt, 0xFA00 + static_cast<std::uint64_t>(t));
      fault_plan = std::make_unique<sim::FaultPlan>(fs);
    }
    obs::Tracer tracer;
    IntersectOptions options;
    options.universe = universe;
    options.seed = session_seed;
    options.chaos_plan = &plan;
    options.checkpoint = checkpoint;
    options.fault_plan = fault_plan.get();
    options.tracer = &tracer;
    const IntersectResult result = intersect(pair.s, pair.t, options);
    rep.merge_metrics(tracer.metrics());
    if (result.verified) tally.verified += 1;
    if (result.degraded) tally.degraded += 1;
    if (!result.degraded && result.intersection != pair.expected_intersection) {
      tally.unflagged_wrong += 1;
    }
    if (!util::is_subset(pair.expected_intersection, result.intersection)) {
      tally.superset_violations += 1;
    }
    tally.total_bits += result.bits;
    tally.total_rounds += result.rounds;
    tally.total_attempts += result.repetitions;
    tally.total_restarts += result.restarts;
    tally.total_bits_replayed += result.bits_replayed;
  }
  return tally;
}

std::string pct(int part, int whole) {
  return bench::fmt_double(100.0 * part / std::max(1, whole), 1);
}

void add_tally_row(bench::Table& table, std::vector<std::string> prefix,
                   const ChaosTally& c) {
  prefix.push_back(bench::fmt_u64(static_cast<std::uint64_t>(c.trials)));
  prefix.push_back(pct(c.verified, c.trials));
  prefix.push_back(bench::fmt_u64(static_cast<std::uint64_t>(c.degraded)));
  prefix.push_back(
      bench::fmt_u64(static_cast<std::uint64_t>(c.unflagged_wrong)));
  prefix.push_back(
      bench::fmt_u64(static_cast<std::uint64_t>(c.superset_violations)));
  prefix.push_back(bench::fmt_u64(
      c.total_bits / static_cast<std::uint64_t>(std::max(1, c.trials))));
  prefix.push_back(bench::fmt_double(
      static_cast<double>(c.total_restarts) / std::max(1, c.trials), 2));
  prefix.push_back(bench::fmt_u64(
      c.total_bits_replayed /
      static_cast<std::uint64_t>(std::max(1, c.trials))));
  table.add_row(std::move(prefix));
}

const std::vector<std::string> kTallyColumns = {
    "trials",          "verified %",          "degraded",
    "unflagged wrong", "superset violations", "avg bits",
    "avg restarts",    "avg bits replayed"};

std::vector<std::string> with_prefix(std::vector<std::string> prefix) {
  std::vector<std::string> columns = std::move(prefix);
  columns.insert(columns.end(), kTallyColumns.begin(), kTallyColumns.end());
  return columns;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace setint;
  auto rep = bench::Reporter::FromArgs("chaos", argc, argv);

  const std::uint64_t universe = std::uint64_t{1} << 16;
  const std::size_t k = 32;
  int violations = 0;
  bool checkpoint_wins = true;

  // C1: crash rate sweep, checkpointed vs full-retry recovery under
  // identical chaos schedules. The acceptance gate: at every rate <= 0.05
  // the checkpointed arm replays strictly fewer bits in total.
  {
    auto& table = rep.table(
        "C1: crash rate vs recovery mode  (k=32, n=2^16, restart=6 ticks)",
        with_prefix({"crash/send", "checkpoint"}));
    const std::vector<double> rates = bench::sizes<double>(
        rep.options(), {0.005, 0.01, 0.02, 0.05}, {0.01, 0.05});
    // Smoke keeps enough trials for the per-rate gate below to be stable
    // across seeds: the arms share crash schedules only up to the first
    // recovery (the no-checkpoint arm re-attempts under a fresh nonce),
    // so at low crash rates the per-trial difference is noisy and the
    // totals need sample size to separate.
    const int trials = rep.smoke() ? 120 : 200;
    for (double rate : rates) {
      sim::ChaosSpec spec;
      spec.crash.crash_prob = rate;
      spec.crash.restart_ticks = 6;
      const std::uint64_t salt = 0x100 + static_cast<std::uint64_t>(rate * 1e4);
      const ChaosTally with_ckpt =
          run_two_party(rep, salt, trials, spec, true, nullptr, universe, k);
      const ChaosTally without_ckpt =
          run_two_party(rep, salt, trials, spec, false, nullptr, universe, k);
      violations += with_ckpt.unflagged_wrong + with_ckpt.superset_violations +
                    without_ckpt.unflagged_wrong +
                    without_ckpt.superset_violations;
      if (with_ckpt.total_bits_replayed >= without_ckpt.total_bits_replayed) {
        checkpoint_wins = false;
      }
      add_tally_row(table, {bench::fmt_double(rate, 3), "yes"}, with_ckpt);
      add_tally_row(table, {bench::fmt_double(rate, 3), "no"}, without_ckpt);
    }
    table.print();
    std::printf("\ncheckpointed recovery replays strictly fewer bits at every "
                "crash rate <= 0.05: %s\n",
                checkpoint_wins ? "YES" : "NO");
  }

  // C2: partition length sweep. The link goes dark for a window of W ticks
  // early in the session; recovery waits it out and resumes.
  {
    auto& table =
        rep.table("C2: partition window length  (k=32, n=2^16, start=tick 8)",
                  with_prefix({"window ticks"}));
    const std::vector<std::uint64_t> windows = bench::sizes<std::uint64_t>(
        rep.options(), {4, 16, 64}, {4, 64});
    const int trials = rep.smoke() ? 20 : 150;
    for (std::uint64_t w : windows) {
      sim::ChaosSpec spec;
      sim::PartitionWindow window;
      window.a = 0;
      window.b = 1;
      window.start_tick = 8;
      window.end_tick = 8 + w;
      spec.partitions.push_back(window);
      const ChaosTally c = run_two_party(rep, 0x200 + w, trials, spec, true,
                                         nullptr, universe, k);
      violations += c.unflagged_wrong + c.superset_violations;
      add_tally_row(table, {bench::fmt_u64(w)}, c);
    }
    table.print();
  }

  // C3: Gilbert-Elliott bursts vs an iid fault plan with the same
  // stationary loss average. Bursts concentrate the damage, so they cost
  // more restarts/attempts at equal average loss — the reason the chaos
  // layer models them at all.
  {
    auto& table = rep.table(
        "C3: bursty loss vs matched-average iid  (k=32, n=2^16)",
        with_prefix({"profile"}));
    const int trials = rep.smoke() ? 20 : 150;
    // Burst: 2% of frames enter a bad state that drops 50% and flips
    // 1e-3/bit, leaving on average after 5 frames. Stationary bad-state
    // occupancy = p_gb / (p_gb + p_bg) = 0.02/0.22 ~ 9.1%; average drop
    // rate ~ 4.5%.
    sim::ChaosSpec burst_spec;
    burst_spec.burst.p_good_to_bad = 0.02;
    burst_spec.burst.p_bad_to_good = 0.2;
    burst_spec.burst.loss_bad = 0.5;
    burst_spec.burst.flip_bad = 1e-3;
    const ChaosTally bursty = run_two_party(rep, 0x300, trials, burst_spec,
                                            true, nullptr, universe, k);
    violations += bursty.unflagged_wrong + bursty.superset_violations;
    add_tally_row(table, {"GE burst (avg drop 4.5%)"}, bursty);
    sim::FaultSpec iid;
    iid.drop_prob = 0.045;
    iid.flip_per_bit = 1e-3 * (0.02 / 0.22);
    sim::ChaosSpec none;  // chaos disabled; iid plan carries the damage
    const ChaosTally smooth =
        run_two_party(rep, 0x301, trials, none, true, &iid, universe, k);
    violations += smooth.unflagged_wrong + smooth.superset_violations;
    add_tally_row(table, {"iid (same averages)"}, smooth);
    table.print();
  }

  // C4: multiparty coordinator under crash-restart chaos, including one
  // player that dies on first contact and never returns. The gate is
  // honest degradation: the answer must flag itself degraded and stay a
  // superset of the true m-way intersection.
  {
    auto& table = rep.table(
        "C4: coordinator with crash-restart + one dead player  "
        "(8 players, k=24, n=2^14)",
        {"scenario", "trials", "exact", "degraded runs",
         "superset violations", "dead-player skips", "avg restarts",
         "avg bits replayed"});
    const int trials = rep.smoke() ? 5 : 40;
    const std::uint64_t mp_universe = std::uint64_t{1} << 14;
    for (const bool with_dead_player : {false, true}) {
      int exact = 0;
      int degraded_runs = 0;
      int mp_violations = 0;
      int undegraded_dead = 0;
      std::uint64_t skips = 0;
      std::uint64_t restarts = 0;
      std::uint64_t bits_replayed = 0;
      util::Rng wrng(rep.seed_for(0x400, with_dead_player ? 2 : 1));
      for (int t = 0; t < trials; ++t) {
        const util::MultiSetInstance instance = util::random_multi_sets(
            wrng, mp_universe, /*players=*/8, /*k=*/24, /*shared=*/6);
        sim::ChaosSpec spec;
        spec.players = 8;
        spec.crash.crash_prob = 0.01;
        spec.crash.restart_ticks = 6;
        spec.seed = rep.seed_for(0x410 + static_cast<std::uint64_t>(t),
                                 with_dead_player ? 2 : 1);
        if (with_dead_player) {
          // Player 3 dies on first contact and never comes back.
          sim::CrashSchedule dead;
          dead.crash_prob = 1.0;
          dead.max_crashes = 0;
          spec.crash_overrides.emplace_back(3, dead);
        }
        const std::uint64_t session_seed = rep.seed_for(
            0x420 + static_cast<std::uint64_t>(t), with_dead_player ? 2 : 1);
        sim::ChaosPlan plan(spec, session_seed);
        obs::Tracer tracer;
        sim::Network network(instance.sets.size());
        network.set_tracer(&tracer);
        sim::SharedRandomness shared(session_seed);
        multiparty::MultipartyParams params;
        params.chaos = &plan;
        const multiparty::MultipartyResult result =
            multiparty::coordinator_intersection(network, shared, mp_universe,
                                                 instance.sets, params);
        if (!util::is_subset(instance.expected_intersection,
                             result.intersection)) {
          mp_violations += 1;
        }
        if (!result.degraded &&
            result.intersection != instance.expected_intersection) {
          mp_violations += 1;  // unflagged wrong multiparty answer
        }
        // A run that lost a player MUST flag itself degraded.
        if (with_dead_player && !result.degraded) undegraded_dead += 1;
        if (result.intersection == instance.expected_intersection) exact += 1;
        if (result.degraded) degraded_runs += 1;
        skips += result.dead_player_skips;
        restarts += result.total_restarts;
        bits_replayed += result.total_bits_replayed;
        rep.merge_metrics(tracer.metrics());
      }
      violations += mp_violations + undegraded_dead;
      table.add_row(
          {with_dead_player ? "crash 1% + player 3 dead" : "crash 1%",
           bench::fmt_u64(static_cast<std::uint64_t>(trials)),
           bench::fmt_u64(static_cast<std::uint64_t>(exact)),
           bench::fmt_u64(static_cast<std::uint64_t>(degraded_runs)),
           bench::fmt_u64(static_cast<std::uint64_t>(mp_violations)),
           bench::fmt_u64(skips),
           bench::fmt_double(static_cast<double>(restarts) / trials, 2),
           bench::fmt_u64(bits_replayed /
                          static_cast<std::uint64_t>(trials))});
    }
    table.print();
  }

  std::printf("\nSafety held in every run (no unflagged wrong answers, "
              "no superset violations): %s\n",
              violations == 0 ? "YES" : "NO");
  rep.note("safety_violations", violations);
  rep.note("checkpoint_replays_fewer_bits", checkpoint_wins);
  // Both gates are deterministic functions of the seed: safety must hold in
  // every run, and checkpointed recovery must beat full retry whenever any
  // crash fired (the comparison runs identical schedules, so ties only
  // happen at zero restarts — strictly-fewer is required otherwise).
  const bool ok = violations == 0 && checkpoint_wins;
  return rep.finish(ok ? 0 : 1);
}

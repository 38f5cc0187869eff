// E1 — Theorem 1.1 / 3.6: the communication/round tradeoff.
//
// Claim: for every r there is a 6r-round protocol with expected
// communication O(k log^(r) k); at r = log* k this is O(k).
// This binary sweeps k and r, reporting measured bits per element next to
// the predicted log^(r) k growth factor. Expected shape: at fixed r,
// bits/k tracks log^(r) k within a constant; the r = log* k column is flat
// in k.
//
// With --json the record also carries a traced phase breakdown (E1d): one
// run per r with an obs::Tracer installed, whose per-level bit totals sum
// exactly to CostStats::bits_total — the accounting identity behind
// Theorem 3.6's per-stage cost telescoping.
//
// E2 — Theorem 1.1: round complexity is at most 6r; this implementation
// takes at most 3r + 1: stage 0 two rounds, every later stage one, each
// plus two when it repairs (and the r = 1 case is a 2-message protocol).
// Reports measured rounds and messages against the auditor's round budget
// (obs::EnvelopeAuditor::rounds_budget, named in the record's
// "rounds_budget" note) across its own (k, r) sweep, with its own trials
// and seeds, and audits those samples in E2b.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "core/verification_tree.h"
#include "obs/envelope.h"
#include "obs/tracer.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "util/iterated_log.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace {

using namespace setint;

sim::CostStats run_tree(std::uint64_t seed, std::uint64_t universe,
                        const util::SetPair& p, int r,
                        obs::Tracer* tracer = nullptr) {
  core::VerificationTreeParams params;
  params.rounds_r = r;
  sim::SharedRandomness shared(seed);
  sim::Channel ch;
  ch.set_tracer(tracer);
  core::verification_tree_intersection(ch, shared, seed, universe, p.s, p.t,
                                       params);
  return ch.cost();
}

// Adds the envelope-audit table `id` over every sample `auditor` holds;
// true when all are within.
bool audit_table(bench::Reporter& rep, const std::string& id,
                 const obs::EnvelopeAuditor& auditor) {
  auto& table = rep.table(
      id + ": envelope audit  (bits <= c * k * (log^(r) k + r), rounds "
           "within budget)",
      {"protocol", "samples", "fitted c", "c bound", "slack",
       "rounds violations", "within"});
  for (const obs::EnvelopeAudit& a : auditor.audit()) {
    table.add_row({a.protocol, bench::fmt_u64(a.samples),
                   bench::fmt_double(a.fitted_c), bench::fmt_double(a.c_bound),
                   bench::fmt_double(a.slack),
                   bench::fmt_u64(a.rounds_violations),
                   a.within() ? "YES" : "NO"});
  }
  table.print();
  std::printf("\nEnvelope audit: %s\n",
              auditor.all_within() ? "ALL WITHIN" : "VIOLATED");
  return auditor.all_within();
}

// E2: worst rounds and messages of `trials` runs per (k, r) against the
// round budget, then the E2b audit of every run. True when both hold.
bool rounds_sweep(bench::Reporter& rep, std::uint64_t universe) {
  const int trials = rep.smoke() ? 2 : 5;
  const std::vector<std::size_t> ks = bench::sizes<std::size_t>(
      rep.options(), {256, 4096, 65536}, {256, 4096});
  auto& table =
      rep.table("E2: measured rounds vs the round budget (Theorem 1.1: 6r)",
                {"k", "r", "rounds (worst of 5)", "budget", "messages"});
  obs::EnvelopeAuditor auditor;
  auditor.expect("verification_tree");
  bool all_within = true;
  for (std::size_t k : ks) {
    util::Rng wrng(rep.seed_for(k));
    const util::SetPair p = util::random_set_pair(wrng, universe, k, k / 2);
    for (int r = 1; r <= 6; ++r) {
      std::uint64_t worst_rounds = 0;
      std::uint64_t worst_messages = 0;
      for (int t = 0; t < trials; ++t) {
        const sim::CostStats cost = run_tree(
            rep.seed_for(k + static_cast<std::uint64_t>(t),
                         static_cast<std::uint64_t>(r)),
            universe, p, r);
        worst_rounds = std::max(worst_rounds, cost.rounds);
        worst_messages = std::max(worst_messages, cost.messages);
        auditor.add("verification_tree",
                    {k, r, cost.bits_total, cost.rounds, 1});
      }
      const std::uint64_t budget =
          obs::EnvelopeAuditor::rounds_budget("verification_tree", k, r);
      all_within &= worst_rounds <= budget;
      table.add_row({bench::fmt_u64(k), bench::fmt_u64(r),
                     bench::fmt_u64(worst_rounds), bench::fmt_u64(budget),
                     bench::fmt_u64(worst_messages)});
    }
  }
  table.print();
  std::printf("\nAll runs within the round budget: %s\n",
              all_within ? "YES" : "NO");
  rep.note("all_within_budget", all_within);
  return audit_table(rep, "E2b", auditor) && all_within;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace setint;
  auto rep = bench::Reporter::FromArgs("tradeoff", argc, argv);
  const std::uint64_t universe = std::uint64_t{1} << 40;
  const int trials = rep.smoke() ? 1 : 3;
  const std::vector<std::size_t> ks = bench::sizes<std::size_t>(
      rep.options(), {256, 1024, 4096, 16384, 65536}, {256, 1024});

  // Every measured (k, r) point below also feeds the theory-conformance
  // auditor: measured bits must stay within c_bound * k * (log^(r) k + r)
  // and rounds within the auditor's budget (3r + 1; the paper allows 6r),
  // or the binary exits non-zero (E1e).
  obs::EnvelopeAuditor auditor;
  auditor.expect("verification_tree");

  {
    auto& table = rep.table(
        "E1a: bits per element vs r  (Theorem 1.1: O(k log^(r) k))",
        {"k", "r=1", "r=2", "r=3", "r=4", "r=5", "r=6", "r=log*k"});
    for (std::size_t k : ks) {
      util::Rng wrng(rep.seed_for(k));
      const util::SetPair p = util::random_set_pair(wrng, universe, k, k / 2);
      std::vector<std::string> row{bench::fmt_u64(k)};
      for (int r = 1; r <= 6; ++r) {
        const sim::CostStats cost = bench::average_cost(trials, [&](int t) {
          return run_tree(
              rep.seed_for(static_cast<std::uint64_t>(t) * 77 + k,
                           static_cast<std::uint64_t>(r)),
              universe, p, r);
        });
        row.push_back(bench::fmt_double(
            static_cast<double>(cost.bits_total) / static_cast<double>(k)));
        auditor.add("verification_tree",
                    {k, r, cost.bits_total, cost.rounds, 1});
      }
      const int rstar = util::log_star(static_cast<double>(k));
      const sim::CostStats cost = bench::average_cost(trials, [&](int t) {
        return run_tree(rep.seed_for(static_cast<std::uint64_t>(t) * 13 + k),
                        universe, p, rstar);
      });
      auditor.add("verification_tree",
                  {k, rstar, cost.bits_total, cost.rounds, 1});
      row.push_back(bench::fmt_double(static_cast<double>(cost.bits_total) /
                                      static_cast<double>(k)) +
                    " (r=" + std::to_string(rstar) + ")");
      table.add_row(std::move(row));
    }
    table.print();
  }

  {
    auto& table = rep.table(
        "E1b: predicted growth factor log^(r) k  (for comparison)",
        {"k", "log^(1)k", "log^(2)k", "log^(3)k", "log^(4)k", "log^(5)k",
         "log^(6)k"});
    for (std::size_t k : ks) {
      std::vector<std::string> row{bench::fmt_u64(k)};
      for (int r = 1; r <= 6; ++r) {
        row.push_back(bench::fmt_double(
            util::iterated_log(r, static_cast<double>(k))));
      }
      table.add_row(std::move(row));
    }
    table.print();
  }

  {
    auto& table = rep.table("E1c: flatness at r = log* k  (the O(k)-bits headline)",
                            {"k", "bits total", "bits/k", "rounds"});
    const std::vector<std::size_t> flat_ks = bench::sizes<std::size_t>(
        rep.options(), {256, 1024, 4096, 16384, 65536, 262144}, {256, 1024});
    for (std::size_t k : flat_ks) {
      util::Rng wrng(rep.seed_for(k * 3));
      const util::SetPair p = util::random_set_pair(wrng, universe, k, k / 2);
      const int rstar = util::log_star(static_cast<double>(k));
      const sim::CostStats cost = bench::average_cost(trials, [&](int t) {
        return run_tree(rep.seed_for(static_cast<std::uint64_t>(t) + k),
                        universe, p, rstar);
      });
      auditor.add("verification_tree",
                  {k, rstar, cost.bits_total, cost.rounds, 1});
      table.add_row({bench::fmt_u64(k), bench::fmt_u64(cost.bits_total),
                     bench::fmt_double(static_cast<double>(cost.bits_total) /
                                       static_cast<double>(k)),
                     bench::fmt_u64(cost.rounds)});
    }
    table.print();
    std::printf(
        "\nShape check: the bits/k column should stay ~flat while k grows\n"
        "1024x, reproducing the O(k) total of Theorem 1.1 at r = log* k.\n");
  }

  // E1d: traced phase breakdown — one run per r with a tracer installed.
  // The per-phase bit attribution must cover the run exactly:
  // sum(level totals) + untraced remainder == bits_total, and the tracer's
  // root total equals the channel's meter bit for bit.
  bool attribution_exact = true;
  {
    auto& table = rep.table(
        "E1d: phase-attributed bits at k=4096 (tracer, per level)",
        {"r", "bits total", "levels bits", "phases covered", "exact"});
    obs::Json breakdowns = obs::Json::array();
    const std::size_t k = rep.smoke() ? 512 : 4096;
    util::Rng wrng(rep.seed_for(k));
    const util::SetPair p = util::random_set_pair(wrng, universe, k, k / 2);
    for (int r = 2; r <= 4; ++r) {
      obs::Tracer tracer;
      const sim::CostStats cost =
          run_tree(rep.seed_for(k, static_cast<std::uint64_t>(r)), universe, p,
                   r, &tracer);
      const obs::PhaseNode* tree = tracer.root().child("verification_tree");
      std::uint64_t level_bits = 0;
      std::size_t levels = 0;
      if (tree != nullptr) {
        for (int stage = 0; stage < r; ++stage) {
          const obs::PhaseNode* level =
              tree->child("level=" + std::to_string(stage));
          if (level == nullptr) continue;
          level_bits += level->total_bits();
          levels += 1;
        }
      }
      const bool exact = tracer.total_bits() == cost.bits_total &&
                         tree != nullptr &&
                         tree->total_bits() == cost.bits_total &&
                         level_bits == cost.bits_total;
      attribution_exact &= exact;
      table.add_row({bench::fmt_u64(static_cast<std::uint64_t>(r)),
                     bench::fmt_u64(cost.bits_total),
                     bench::fmt_u64(level_bits), bench::fmt_u64(levels),
                     exact ? "YES" : "NO"});
      rep.merge_metrics(tracer.metrics());

      obs::Json entry = obs::Json::object();
      entry["r"] = r;
      entry["k"] = k;
      entry["bits_total"] = cost.bits_total;
      entry["phases"] = tracer.BreakdownJson();
      breakdowns.push_back(std::move(entry));
    }
    table.print();
    rep.note("phase_breakdowns", std::move(breakdowns));
    std::printf(
        "\nAttribution identity (sum of per-level bits == bits_total): %s\n",
        attribution_exact ? "EXACT" : "VIOLATED");
  }

  // E1e: theory-conformance envelope over every sample measured above.
  const bool envelope_ok = audit_table(rep, "E1e", auditor);
  rep.note("envelope_audit", auditor.ToJson());
  rep.note("rounds_budget", "verification_tree: 3r + 1");

  const bool rounds_ok = rounds_sweep(rep, universe);
  return rep.finish(attribution_exact && envelope_ok && rounds_ok ? 0 : 1);
}

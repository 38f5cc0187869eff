// E2 — Theorem 1.1: round complexity is at most 6r; this implementation
// takes at most 3r + 1: stage 0 two rounds, every later stage one, each
// plus two when it repairs (and the r = 1 case is a 2-message protocol).
// Reports measured rounds and messages against the auditor's round budget
// (obs::EnvelopeAuditor::rounds_budget, named in the record's
// "rounds_budget" note) across the same (k, r) sweep as E1.
#include <cstdio>

#include "bench_util.h"
#include "core/verification_tree.h"
#include "obs/envelope.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "util/rng.h"
#include "util/set_util.h"

int main(int argc, char** argv) {
  using namespace setint;
  auto rep = bench::Reporter::FromArgs("rounds", argc, argv);
  const std::uint64_t universe = std::uint64_t{1} << 40;
  const int trials = rep.smoke() ? 2 : 5;
  const std::vector<std::size_t> ks = bench::sizes<std::size_t>(
      rep.options(), {256, 4096, 65536}, {256, 4096});

  auto& table =
      rep.table("E2: measured rounds vs the round budget (Theorem 1.1: 6r)",
                {"k", "r", "rounds (worst of 5)", "budget", "messages"});
  rep.note("rounds_budget", "verification_tree: 3r + 1");
  // Every per-trial run also feeds the conformance auditor, so this
  // binary cross-checks the bit envelope alongside its round budgets.
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
        core::VerificationTreeParams params;
        params.rounds_r = r;
        const std::uint64_t seed =
            rep.seed_for(k + static_cast<std::uint64_t>(t),
                         static_cast<std::uint64_t>(r));
        sim::SharedRandomness shared(seed);
        sim::Channel ch;
        core::verification_tree_intersection(ch, shared, seed, universe, p.s,
                                             p.t, params);
        worst_rounds = std::max(worst_rounds, ch.cost().rounds);
        worst_messages = std::max(worst_messages, ch.cost().messages);
        auditor.add("verification_tree",
                    {k, r, ch.cost().bits_total, ch.cost().rounds, 1});
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

  // Envelope audit over every per-trial sample (worst-case fit, not the
  // table's worst-of-trials aggregation).
  bool envelope_ok = true;
  {
    auto& audit_table = rep.table(
        "E2b: envelope audit  (bits <= c * k * (log^(r) k + r), rounds within "
        "budget)",
        {"protocol", "samples", "fitted c", "c bound", "slack",
         "rounds violations", "within"});
    for (const obs::EnvelopeAudit& a : auditor.audit()) {
      audit_table.add_row(
          {a.protocol, bench::fmt_u64(a.samples), bench::fmt_double(a.fitted_c),
           bench::fmt_double(a.c_bound), bench::fmt_double(a.slack),
           bench::fmt_u64(a.rounds_violations), a.within() ? "YES" : "NO"});
    }
    audit_table.print();
    envelope_ok = auditor.all_within();
    rep.note("envelope_audit", auditor.ToJson());
    std::printf("\nEnvelope audit: %s\n",
                envelope_ok ? "ALL WITHIN" : "VIOLATED");
  }
  return rep.finish(all_within && envelope_ok ? 0 : 1);
}

// Theory-conformance auditor: checks measured runs against the paper's
// cost envelopes.
//
// The paper's contribution is quantitative — an r-round protocol finding
// the intersection in O(k * ilog_r k) bits (Theorem 1.1 / 3.6) with at
// most 6r rounds — so the honest regression surface is "do measured
// transcripts still sit inside those envelopes". The auditor encodes,
// per protocol, a predicted bit shape P(k, r) (the O(.) argument with the
// constant divided out) and a hard round budget; callers feed measured
// (k, r, bits, rounds) samples, the auditor fits the implied constant
//
//     c_hat = max over samples of bits / P(k, r)
//
// and reports the slack against a calibrated hard-fail bound c_bound.
// A run OUTSIDE the envelope (c_hat > c_bound, or any rounds-budget
// violation) is a theory-conformance regression: exp_tradeoff (E1e and
// E2b) and exp_cpu wire all_within() into their exit codes, tools/bench_compare
// fails on an envelope-audit section that went red, and the facade
// attaches a per-run audit to RunReport::envelope.
//
// Bit shapes (k = set-size bound, r = effective stage count):
//   verification_tree      k * (max(1, ilog_r k) + r)
//       Theorem 3.6's telescoped cost: the stage-0 equality tests pay
//       O(k * ilog_r k) and each of the r stages adds O(k) for its
//       shallower levels — fitting one constant against ilog_r k alone
//       would conflate those two terms and drift with r.
//   verified_intersection  same shape, scaled by certified attempts
//       (the facade's amplified run: tree + 2k-bit certificate per
//       attempt; see multiparty/coordinator.h)
//   one_round_hash         k * max(1, log2 k)        (r = 1 base case)
//   bucket_eq              k                          (Theorem 3.1, O(k))
//   basic_intersection     k                          (Lemma 3.9, fixed eps)
//
// Round budgets: verification_tree 3r + 1 (stage 0 two rounds, every
// later stage one, as its hashes ride the turn that closed the stage
// before; two more for a stage that repairs); verified_intersection
// (3r + 2) per attempt, the certificate's hash riding the tree's last
// turn; one_round_hash 2; basic_intersection 3; bucket_eq
// 8 * max(1, ceil_log2 k) (amortized-equality binary searches).
//
// Default c_bounds are calibrated from the committed BENCH_* trajectory
// with ~40% headroom (see docs/OBSERVABILITY.md § conformance envelopes);
// a bound that trips means the protocol's constant factor regressed, not
// that the asymptotics are in doubt.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace setint::obs {

struct EnvelopeSample {
  std::uint64_t k = 0;
  // Requested stage count; 0 = auto, resolved to log*(k) like
  // core::VerificationTreeParams does.
  int r = 0;
  std::uint64_t bits = 0;
  std::uint64_t rounds = 0;
  // Certified attempts consumed (verified_intersection only): budgets
  // scale per attempt.
  std::uint64_t repetitions = 1;
};

// Audit verdict for one protocol's sample set.
struct EnvelopeAudit {
  std::string protocol;
  std::size_t samples = 0;
  double fitted_c = 0.0;  // max bits / predicted over samples
  double mean_c = 0.0;
  double c_bound = 0.0;
  // c_bound / fitted_c: > 1 means inside the envelope with that much
  // margin, < 1 means the bit bound is violated.
  double slack = 0.0;
  std::uint64_t worst_k = 0;  // sample attaining fitted_c
  int worst_r = 0;
  std::uint64_t rounds_violations = 0;
  bool bits_within = false;
  bool rounds_within = false;

  bool within() const { return bits_within && rounds_within; }
  Json ToJson() const;
};

class EnvelopeAuditor {
 public:
  // Registers `protocol` (even with zero samples, so a bench that never
  // feeds it still reports the gap). `c_bound` = 0 uses the calibrated
  // default. Throws std::invalid_argument for unknown protocol names.
  void expect(std::string_view protocol, double c_bound = 0.0);

  // Adds a measured sample; auto-registers the protocol.
  void add(std::string_view protocol, const EnvelopeSample& sample);

  std::vector<EnvelopeAudit> audit() const;
  bool all_within() const;

  // {"all_within": bool, "protocols": [EnvelopeAudit..., name-sorted]}
  Json ToJson() const;

  // The envelope primitives (also used by the single-run facade audit).
  static double predicted_bits(std::string_view protocol, std::uint64_t k,
                               int r, std::uint64_t repetitions = 1);
  static std::uint64_t rounds_budget(std::string_view protocol,
                                     std::uint64_t k, int r,
                                     std::uint64_t repetitions = 1);
  static double default_c_bound(std::string_view protocol);
  // 0 = auto resolves to log* k (the facade / params convention).
  static int effective_r(std::uint64_t k, int r);
  static bool known_protocol(std::string_view protocol);

 private:
  std::map<std::string, std::pair<double, std::vector<EnvelopeSample>>,
           std::less<>>
      protocols_;  // name -> (c_bound, samples)
};

// One-sample convenience audit (what the facade attaches to
// RunReport::envelope): {"protocol", "k", "r", "bits", "rounds",
// "predicted_bits", "fitted_c", "c_bound", "slack", "rounds_budget",
// "within"}.
Json audit_single_run(std::string_view protocol, const EnvelopeSample& sample);

// Lemma 3.3 / Fact 3.5 error-budget audit: `failures` bad outcomes out of
// `trials` against a per-trial budget `eps`, allowing a z-sigma Chernoff
// margin above the mean (z = 3 keeps the false-alarm rate ~1e-3 while
// still catching a budget that is off by a constant).
struct ErrorBudgetAudit {
  std::uint64_t trials = 0;
  std::uint64_t failures = 0;
  double budget_eps = 0.0;
  double allowed = 0.0;  // trials*eps + z*sqrt(trials*eps*(1-eps))
  bool within = false;
  Json ToJson() const;
};

ErrorBudgetAudit audit_error_rate(std::uint64_t failures,
                                  std::uint64_t trials, double budget_eps,
                                  double z = 3.0);

}  // namespace setint::obs

// Tests for the theory-conformance auditor (obs/envelope.h): predicted
// bit shapes, constant fitting, hard-fail triggers (bit bound, round
// budget, missing coverage), the Chernoff error-budget audit, and golden
// audits pinned against the reference-instance transcript digests shared
// with tests/golden_test.cc and exp_cpu's E-CPU.0 gate.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/bucket_eq.h"
#include "core/one_round_hash.h"
#include "core/verification_tree.h"
#include "obs/envelope.h"
#include "obs/tracer.h"
#include "setint.h"
#include "sim/channel.h"
#include "sim/fault.h"
#include "sim/randomness.h"
#include "util/iterated_log.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

using obs::EnvelopeAuditor;
using obs::EnvelopeSample;

// ---------- predicted shapes ----------

TEST(Envelope, PredictedShapesMatchTheTheoremCosts) {
  // bucket_eq / basic_intersection are linear in k (Theorem 3.1 /
  // Lemma 3.9).
  EXPECT_DOUBLE_EQ(EnvelopeAuditor::predicted_bits("bucket_eq", 1024, 0),
                   1024.0);
  EXPECT_DOUBLE_EQ(
      EnvelopeAuditor::predicted_bits("basic_intersection", 4096, 0), 4096.0);
  // one_round_hash: k * log2 k (the r = 1 base case).
  EXPECT_DOUBLE_EQ(EnvelopeAuditor::predicted_bits("one_round_hash", 512, 0),
                   512.0 * 9.0);
  // verification_tree: k * (ilog_r k + r), Theorem 3.6's telescoped cost.
  const double expected =
      512.0 * (std::max(1.0, util::iterated_log(2, 512.0)) + 2.0);
  EXPECT_DOUBLE_EQ(EnvelopeAuditor::predicted_bits("verification_tree", 512, 2),
                   expected);
  // repetitions scale the verified-run envelope linearly.
  EXPECT_DOUBLE_EQ(
      EnvelopeAuditor::predicted_bits("verified_intersection", 512, 2, 3),
      3.0 * EnvelopeAuditor::predicted_bits("verified_intersection", 512, 2, 1));
}

TEST(Envelope, EffectiveRResolvesAutoToLogStar) {
  EXPECT_EQ(EnvelopeAuditor::effective_r(512, 3), 3);
  const int auto_r = EnvelopeAuditor::effective_r(512, 0);
  EXPECT_EQ(auto_r, std::max(1, util::log_star(512.0)));
}

TEST(Envelope, RoundBudgetsMatchTheoremOneDotOne) {
  // verification_tree: 3r + 1.
  EXPECT_EQ(EnvelopeAuditor::rounds_budget("verification_tree", 512, 4), 13u);
  EXPECT_EQ(EnvelopeAuditor::rounds_budget("one_round_hash", 512, 0), 2u);
  EXPECT_EQ(EnvelopeAuditor::rounds_budget("basic_intersection", 512, 0), 3u);
  // bucket_eq: 8 per binary-search level.
  EXPECT_EQ(EnvelopeAuditor::rounds_budget("bucket_eq", 512, 0), 8u * 9u);
  // verified_intersection: (3r + 2) per certified attempt, the tree and
  // the certificate's verdict round.
  EXPECT_EQ(EnvelopeAuditor::rounds_budget("verified_intersection", 512, 2, 3),
            3u * (3u * 2u + 2u));
}

TEST(Envelope, UnknownProtocolThrows) {
  EnvelopeAuditor auditor;
  EXPECT_THROW(auditor.expect("quantum_telepathy"), std::invalid_argument);
  EXPECT_THROW(EnvelopeAuditor::predicted_bits("nope", 8, 1),
               std::invalid_argument);
  EXPECT_FALSE(EnvelopeAuditor::known_protocol("nope"));
  EXPECT_TRUE(EnvelopeAuditor::known_protocol("verification_tree"));
}

// ---------- fitting and verdicts ----------

TEST(Envelope, FitsTheWorstCaseConstant) {
  EnvelopeAuditor auditor;
  const double p1 = EnvelopeAuditor::predicted_bits("bucket_eq", 100, 0);
  const double p2 = EnvelopeAuditor::predicted_bits("bucket_eq", 1000, 0);
  auditor.add("bucket_eq",
              {100, 0, static_cast<std::uint64_t>(5 * p1), 8, 1});
  auditor.add("bucket_eq",
              {1000, 0, static_cast<std::uint64_t>(20 * p2), 8, 1});
  const auto audits = auditor.audit();
  ASSERT_EQ(audits.size(), 1u);
  EXPECT_NEAR(audits[0].fitted_c, 20.0, 1e-9);
  EXPECT_NEAR(audits[0].mean_c, 12.5, 1e-9);
  EXPECT_EQ(audits[0].worst_k, 1000u);
  EXPECT_NEAR(audits[0].slack, 30.0 / 20.0, 1e-9);
  EXPECT_TRUE(audits[0].within());  // 20 <= bound 30
  EXPECT_TRUE(auditor.all_within());
}

TEST(Envelope, BitBoundViolationTripsTheAudit) {
  EnvelopeAuditor auditor;
  const double p = EnvelopeAuditor::predicted_bits("bucket_eq", 256, 0);
  auditor.add("bucket_eq",
              {256, 0, static_cast<std::uint64_t>(31 * p), 8, 1});
  const auto audits = auditor.audit();
  ASSERT_EQ(audits.size(), 1u);
  EXPECT_FALSE(audits[0].bits_within);
  EXPECT_LT(audits[0].slack, 1.0);
  EXPECT_FALSE(auditor.all_within());
}

TEST(Envelope, RoundBudgetViolationTripsTheAudit) {
  EnvelopeAuditor auditor;
  // Cheap on bits, but one round over the 3r + 1 budget.
  auditor.add("verification_tree", {512, 1, 512, 5, 1});
  const auto audits = auditor.audit();
  ASSERT_EQ(audits.size(), 1u);
  EXPECT_TRUE(audits[0].bits_within);
  EXPECT_EQ(audits[0].rounds_violations, 1u);
  EXPECT_FALSE(audits[0].within());
  EXPECT_FALSE(auditor.all_within());
}

TEST(Envelope, RegisteredButUnsampledProtocolFails) {
  // Coverage silently vanishing is a regression: a bench that stops
  // feeding a protocol it promised must go red, not green.
  EnvelopeAuditor auditor;
  auditor.expect("one_round_hash");
  const auto audits = auditor.audit();
  ASSERT_EQ(audits.size(), 1u);
  EXPECT_EQ(audits[0].samples, 0u);
  EXPECT_FALSE(audits[0].within());
  EXPECT_FALSE(auditor.all_within());
}

TEST(Envelope, EmptyAuditorIsNotAPass) {
  EXPECT_FALSE(EnvelopeAuditor().all_within());
}

TEST(Envelope, ToJsonCarriesTheVerdict) {
  EnvelopeAuditor auditor;
  auditor.add("bucket_eq", {64, 0, 640, 8, 1});
  const obs::Json doc = auditor.ToJson();
  EXPECT_TRUE(doc.find("all_within")->as_bool());
  ASSERT_EQ(doc.find("protocols")->size(), 1u);
  const obs::Json& entry = doc.find("protocols")->at(0);
  EXPECT_EQ(entry.find("protocol")->as_string(), "bucket_eq");
  EXPECT_TRUE(entry.find("within")->as_bool());
}

// ---------- golden-pinned audits ----------

// Constants shared with tests/golden_test.cc and exp_cpu's E-CPU.0 gate:
// the reference instance (seeds independent of any flag) must stay
// bit-identical AND inside its envelope. If a digest here changes, the
// protocol changed; if a digest holds but the envelope trips, the
// calibration drifted — the two failure modes are distinguishable.
struct GoldenRun {
  std::uint64_t bits = 0;
  std::uint64_t rounds = 0;
  std::uint64_t digest = 0;
};

GoldenRun run_reference(const char* protocol) {
  util::Rng wrng(12345);
  const util::SetPair pair =
      util::random_set_pair(wrng, 1u << 24, 512, 256);
  sim::SharedRandomness shared{777};
  sim::Channel ch(/*record_transcript=*/true);
  const std::string name = protocol;
  if (name == "verification_tree") {
    core::verification_tree_intersection(ch, shared, 42, 1u << 24, pair.s,
                                         pair.t, {});
  } else if (name == "one_round_hash") {
    core::one_round_hash(ch, shared, 42, 1u << 24, pair.s, pair.t);
  } else {
    core::bucket_eq_intersection(ch, shared, 42, 1u << 24, pair.s, pair.t);
  }
  return {ch.cost().bits_total, ch.cost().rounds, ch.transcript()->digest()};
}

TEST(EnvelopeGolden, VerificationTreeReferenceWithinEnvelope) {
  const GoldenRun run = run_reference("verification_tree");
  EXPECT_EQ(run.bits, 18161u);
  EXPECT_EQ(run.rounds, 11u);
  EXPECT_EQ(run.digest, 0x95fa00d57b0964d6ull);
  EnvelopeAuditor auditor;
  auditor.add("verification_tree", {512, 0, run.bits, run.rounds, 1});
  EXPECT_TRUE(auditor.all_within());
}

TEST(EnvelopeGolden, OneRoundHashReferenceWithinEnvelope) {
  const GoldenRun run = run_reference("one_round_hash");
  EXPECT_EQ(run.bits, 27686u);
  EXPECT_EQ(run.digest, 0x9083d7c54c7c9afeull);
  EnvelopeAuditor auditor;
  auditor.add("one_round_hash", {512, 0, run.bits, run.rounds, 1});
  EXPECT_TRUE(auditor.all_within());
}

TEST(EnvelopeGolden, BucketEqReferenceWithinEnvelope) {
  const GoldenRun run = run_reference("bucket_eq");
  EXPECT_EQ(run.bits, 9023u);
  EXPECT_EQ(run.digest, 0xe1cdad82c6c8c0b0ull);
  EnvelopeAuditor auditor;
  auditor.add("bucket_eq", {512, 0, run.bits, run.rounds, 1});
  EXPECT_TRUE(auditor.all_within());
}

// ---------- single-run audit + facade integration ----------

TEST(Envelope, AuditSingleRunReportsSlack) {
  const GoldenRun run = run_reference("verification_tree");
  const obs::Json audit = obs::audit_single_run(
      "verification_tree", {512, 0, run.bits, run.rounds, 1});
  EXPECT_EQ(audit.find("protocol")->as_string(), "verification_tree");
  EXPECT_TRUE(audit.find("within")->as_bool());
  EXPECT_GT(audit.find("slack")->number_or(0), 1.0);
  EXPECT_GT(audit.find("predicted_bits")->number_or(0), 0.0);
}

TEST(Envelope, FacadeAttachesAuditToCleanTracedRuns) {
  util::Rng rng(0xE57);
  const util::SetPair pair = util::random_set_pair(rng, 1u << 20, 64, 32);
  obs::Tracer tracer;
  IntersectOptions options;
  options.universe = 1u << 20;
  options.seed = 9;
  options.tracer = &tracer;
  const IntersectResult result = intersect(pair.s, pair.t, options);
  ASSERT_TRUE(result.verified);
  const obs::Json report = result.report.ToJson();
  const obs::Json* envelope = report.find("envelope");
  ASSERT_NE(envelope, nullptr);
  EXPECT_EQ(envelope->find("protocol")->as_string(), "verified_intersection");
  EXPECT_TRUE(envelope->find("within")->as_bool());
  // The facade also publishes per-run hdr distributions.
  EXPECT_EQ(tracer.metrics().hdrs().count("run.bits"), 1u);
}

TEST(Envelope, FacadeOmitsAuditOutsideTheCleanModel) {
  // A faulted transport is outside the clean-protocol cost model; the
  // audit must be absent rather than wrong.
  util::Rng rng(0xE58);
  const util::SetPair pair = util::random_set_pair(rng, 1u << 16, 32, 16);
  sim::FaultSpec spec;
  spec.flip_per_bit = 1e-3;
  spec.seed = 11;
  sim::FaultPlan plan(spec);
  obs::Tracer tracer;
  IntersectOptions options;
  options.universe = 1u << 16;
  options.seed = 13;
  options.tracer = &tracer;
  options.fault_plan = &plan;
  const IntersectResult result = intersect(pair.s, pair.t, options);
  const obs::Json report = result.report.ToJson();
  EXPECT_EQ(report.find("envelope"), nullptr);
}

// ---------- error-budget audit ----------

TEST(Envelope, ErrorBudgetAllowsChernoffMargin) {
  // mean = 10, sigma ~ 3.15: 15 failures sit inside the 3-sigma margin,
  // 30 do not.
  const obs::ErrorBudgetAudit ok = obs::audit_error_rate(15, 1000, 0.01);
  EXPECT_TRUE(ok.within);
  EXPECT_NEAR(ok.allowed, 10.0 + 3.0 * std::sqrt(10.0 * 0.99), 1e-9);
  const obs::ErrorBudgetAudit bad = obs::audit_error_rate(30, 1000, 0.01);
  EXPECT_FALSE(bad.within);
  EXPECT_TRUE(obs::audit_error_rate(0, 1000, 0.01).within);
  EXPECT_EQ(bad.ToJson().find("within")->as_bool(), false);
}

}  // namespace
}  // namespace setint

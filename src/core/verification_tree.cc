#include "core/verification_tree.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "core/deterministic_exchange.h"
#include "core/one_round_hash.h"
#include "core/tree_parties.h"
#include "obs/tracer.h"
#include "sim/runtime.h"
#include "util/arena.h"
#include "util/iterated_log.h"

namespace setint::core {

namespace {

// Alice as the runner drives her, plus the loud check a simulation that
// holds both parties can afford: once Alice has read Bob's verdicts, both
// must repair the same leaves. A tampered verdict frame fails the run
// right there, before the desynchronised repair sends anything.
class CheckedAlice final : public sim::Party {
 public:
  CheckedAlice(TreeAlice& alice, const TreeBob& bob)
      : alice_(alice), bob_(bob) {}
  std::optional<sim::Outgoing> start() override { return alice_.start(); }
  std::optional<sim::Outgoing> on_message(
      const util::BitBuffer& message) override {
    std::optional<sim::Outgoing> reply = alice_.on_message(message);
    if (alice_.failed_leaves() != bob_.failed_leaves()) {
      throw std::logic_error("verification_tree: equality verdict mismatch");
    }
    return reply;
  }
  bool done() const override { return alice_.done(); }

 private:
  TreeAlice& alice_;
  const TreeBob& bob_;
};

// The vt.* and bi.* metrics of a finished run, from the parties'
// diagnostics; stages the cutoff skipped recorded no bits and emit nothing.
void emit_metrics(obs::Tracer* tracer, const TreeAlice& alice,
                  const TreeBob& bob, std::size_t leaves) {
  if (tracer == nullptr) return;
  const VerificationTreeDiag& diag = alice.diag();
  for (std::size_t u = 0; u < leaves; ++u) {
    obs::observe(tracer, "vt.bucket_size",
                 alice.bucket_size(u) + bob.bucket_size(u));
  }
  std::uint64_t bi_batches = 0;
  for (std::size_t i = 0; i < diag.stage_failures.size(); ++i) {
    if (diag.stage_eq_bits[i] == 0) break;
    obs::observe(tracer, "vt.eq_hash_bits",
                 alice.eq_bits(static_cast<int>(i)));
    obs::count(tracer, "vt.stage_failures", diag.stage_failures[i]);
    bi_batches += diag.stage_failures[i] > 0 ? 1 : 0;
  }
  if (diag.total_bi_runs > 0) {
    obs::count(tracer, "vt.bi_runs", diag.total_bi_runs);
    obs::count(tracer, "bi.batches", bi_batches);
    obs::count(tracer, "bi.instances", diag.total_bi_runs);
  }
  if (diag.fallback_used) {
    obs::count(tracer, "vt.fallbacks");
    return;
  }
  for (std::uint32_t reruns : diag.leaf_reruns) {
    obs::observe(tracer, "vt.leaf_reruns", reruns);
  }
}

}  // namespace

std::vector<std::vector<std::pair<std::size_t, std::size_t>>>
verification_tree_layout(std::size_t leaves, int rounds_r) {
  return *tree_layout(leaves, rounds_r);
}

IntersectionOutput verification_tree_intersection(
    sim::Channel& channel, const sim::SharedRandomness& shared,
    std::uint64_t nonce, std::uint64_t universe, util::SetView s,
    util::SetView t, const VerificationTreeParams& params,
    VerificationTreeDiag* diag, Checkpoint* ckpt) {
  validate_instance(universe, s, t);
  // The public parameters both parties derive from: the size bound k and
  // the stage count r.
  VerificationTreeParams pub = params;
  if (pub.bucket_count == 0) {
    pub.bucket_count = std::max<std::size_t>({s.size(), t.size(), 2});
  }
  if (pub.rounds_r == 0) {
    pub.rounds_r =
        std::max(1, util::log_star(static_cast<double>(pub.bucket_count)));
  }
  if (pub.rounds_r < 1 || pub.rounds_r > kMaxTreeStages) {
    throw std::invalid_argument("verification_tree: r out of range");
  }

  obs::Tracer* tracer = channel.tracer();
  obs::Span protocol_span(tracer, "verification_tree");

  // Theorem 3.6, r = 1 base case: plain hash exchange with range k^c —
  // exactly the one-round protocol, c k log k bits in two messages.
  if (pub.rounds_r == 1) {
    if (diag != nullptr) *diag = VerificationTreeDiag{};
    return one_round_hash(channel, shared, nonce, universe, s, t);
  }

  util::ScratchArena::Frame scratch_frame(channel.scratch());
  const sim::PartyEnv env(channel);
  TreeAlice alice(shared, nonce, universe, s, pub, env);
  TreeBob bob(shared, nonce, universe, t, pub, env);
  CheckedAlice checked(alice, bob);
  // At most six messages per stage; every completed stage is a "vt"
  // checkpoint boundary.
  sim::run_two_party(channel, checked, bob,
                     6 * static_cast<std::size_t>(pub.rounds_r), ckpt, "vt");
  emit_metrics(tracer, alice, bob, pub.bucket_count);
  if (diag != nullptr) *diag = alice.diag();
  if (alice.diag().fallback_used) {
    return deterministic_exchange(channel, universe, s, t);
  }
  return IntersectionOutput{alice.output(), bob.output()};
}

std::string VerificationTreeProtocol::name() const {
  if (params_.rounds_r == 0) return "verification-tree[r=log*k]";
  return "verification-tree[r=" + std::to_string(params_.rounds_r) + "]";
}

RunResult VerificationTreeProtocol::run(std::uint64_t seed,
                                        std::uint64_t universe,
                                        util::SetView s,
                                        util::SetView t) const {
  sim::Channel channel;
  sim::SharedRandomness shared(seed);
  RunResult result;
  result.output = verification_tree_intersection(
      channel, shared, /*nonce=*/0, universe, s, t, params_);
  result.cost = channel.cost();
  return result;
}

}  // namespace setint::core

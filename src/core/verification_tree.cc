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

// The public parameters both parties derive from: the size bound k and
// the stage count r.
VerificationTreeParams public_params(std::uint64_t universe, util::SetView s,
                                     util::SetView t,
                                     const VerificationTreeParams& params) {
  validate_instance(universe, s, t);
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
  return pub;
}

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

std::optional<sim::Outgoing> VerificationTreeRun::CheckedAlice::on_message(
    const util::BitBuffer& message) {
  std::optional<sim::Outgoing> reply = alice_.on_message(message);
  if (alice_.failed_leaves() != bob_.failed_leaves()) {
    throw std::logic_error("verification_tree: equality verdict mismatch");
  }
  return reply;
}

VerificationTreeRun::VerificationTreeRun(
    sim::Channel& channel, const sim::SharedRandomness& shared,
    std::uint64_t nonce, std::uint64_t universe, util::SetView s,
    util::SetView t, const VerificationTreeParams& params, Checkpoint* ckpt)
    : channel_(channel), shared_(shared), nonce_(nonce), universe_(universe),
      s_(s), t_(t), pub_(public_params(universe, s, t, params)),
      span_(channel.tracer(), "verification_tree") {
  // Theorem 3.6, r = 1 base case: plain hash exchange with range k^c —
  // exactly the one-round protocol, c k log k bits in two messages.
  if (pub_.rounds_r == 1) return;
  frame_.emplace(channel.scratch());
  const sim::PartyEnv env(channel);
  alice_.emplace(shared, nonce, universe, s, pub_, env);
  bob_.emplace(shared, nonce, universe, t, pub_, env);
  checked_.emplace(*alice_, *bob_);
  // At most six messages per stage; every completed stage is a "vt"
  // checkpoint boundary.
  run_.emplace(channel, *checked_, *bob_,
               6 * static_cast<std::size_t>(pub_.rounds_r), ckpt, "vt");
}

bool VerificationTreeRun::step() {
  if (!run_) {
    output_ = one_round_hash(channel_, shared_, nonce_, universe_, s_, t_);
    return true;
  }
  if (!run_->step()) return false;
  emit_metrics(channel_.tracer(), *alice_, *bob_, pub_.bucket_count);
  output_ = alice_->diag().fallback_used
                ? deterministic_exchange(channel_, universe_, s_, t_)
                : IntersectionOutput{alice_->output(), bob_->output()};
  return true;
}

const VerificationTreeDiag& VerificationTreeRun::diag() const {
  static const VerificationTreeDiag kNone;
  return alice_ ? alice_->diag() : kNone;
}

IntersectionOutput verification_tree_intersection(
    sim::Channel& channel, const sim::SharedRandomness& shared,
    std::uint64_t nonce, std::uint64_t universe, util::SetView s,
    util::SetView t, const VerificationTreeParams& params,
    VerificationTreeDiag* diag, Checkpoint* ckpt) {
  VerificationTreeRun run(channel, shared, nonce, universe, s, t, params,
                          ckpt);
  while (!run.step()) {
  }
  if (diag != nullptr) *diag = run.diag();
  return std::move(run.output());
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

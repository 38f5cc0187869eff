#include "core/tree_parties.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "hashing/pairwise.h"
#include "util/arena.h"
#include "util/bitio.h"
#include "util/iterated_log.h"
#include "util/rng.h"

namespace setint::core {

namespace {

// Tracer paths of one stage's messages. Outgoing::phase is a view, so the
// paths live in a table built once per process, not in per-session
// strings.
struct StagePhases {
  std::string equality;
  std::string size_exchange;
  std::string hash_exchange;
};

const StagePhases& stage_phases(int stage) {
  static const std::vector<StagePhases> table = [] {
    std::vector<StagePhases> t;
    for (int i = 0; i < kMaxTreeStages; ++i) {
      const std::string level = "level=" + std::to_string(i);
      t.push_back({level + "/equality",
                   level + "/basic_intersection/size_exchange",
                   level + "/basic_intersection/hash_exchange"});
    }
    return t;
  }();
  return table[static_cast<std::size_t>(stage)];
}

// Failure target 1/(log^(r-i-1) k)^4 of stage i's equality tests and
// Basic-Intersection re-runs (Algorithm 1) is 1/tower^4.
double stage_tower(int r, int stage, std::size_t leaves) {
  return std::max(2.0, util::iterated_log(r - stage - 1,
                                          static_cast<double>(leaves)));
}

// Stage count of a tree party: explicit, or log*(k); at least 2.
int party_rounds(const VerificationTreeParams& params) {
  if (params.bucket_count == 0) {
    // A party cannot see the peer's size, so the public bound must be
    // explicit in this execution mode.
    throw std::invalid_argument("tree party: bucket_count must be explicit");
  }
  const int r =
      params.rounds_r != 0
          ? params.rounds_r
          : std::max(1, util::log_star(
                            static_cast<double>(params.bucket_count)));
  if (r < 2) throw std::invalid_argument("tree party: requires r >= 2");
  return r;  // TreeShape rejects r > kMaxTreeStages
}

}  // namespace

TreeShape::TreeShape(std::size_t leaves, int rounds_r)
    : leaves_(leaves), r_(rounds_r) {
  if (leaves == 0) throw std::invalid_argument("layout: zero leaves");
  if (rounds_r < 1) throw std::invalid_argument("layout: r < 1");
  if (rounds_r > kMaxTreeStages) {
    throw std::invalid_argument("layout: r > kMaxTreeStages");
  }
  cover_[static_cast<std::size_t>(r_)] = leaves;
  for (int i = r_ - 1; i >= 0; --i) {
    const double v = util::iterated_log(r_ - i, static_cast<double>(leaves));
    auto c = static_cast<std::size_t>(std::llround(std::max(1.0, v)));
    c = std::min(c, cover_[static_cast<std::size_t>(i) + 1]);
    cover_[static_cast<std::size_t>(i)] = std::max<std::size_t>(1, c);
  }
  cover_[0] = 1;  // level 0 nodes are the leaves themselves
}

// Each level-j node is cut into chunks of cover(j - 1) leaves, the last
// one possibly shorter, down to the level asked for. Covers are monotone
// and cover(0) = 1, so below a level of single leaves every level is the
// leaves themselves.
void TreeShape::append_starts(int j, std::size_t lo, std::size_t hi,
                              int level,
                              std::vector<std::size_t>& starts) const {
  if (j == level) {
    starts.push_back(lo);
    return;
  }
  const std::size_t chunk = cover(j - 1);
  if (chunk == 1) {
    for (std::size_t u = lo; u < hi; ++u) starts.push_back(u);
    return;
  }
  for (std::size_t s = lo; s < hi; s += chunk) {
    append_starts(j - 1, s, std::min(s + chunk, hi), level, starts);
  }
}

void TreeShape::level_bounds(int level,
                             std::vector<std::size_t>& bounds) const {
  bounds.clear();
  append_starts(r_, 0, leaves_, level, bounds);
  bounds.push_back(leaves_);
}

TreeParty::TreeParty(const sim::SharedRandomness& shared, std::uint64_t nonce,
                     std::uint64_t universe, util::SetView input,
                     const VerificationTreeParams& params, sim::PartyEnv env,
                     sim::PartyId self)
    : shared_(shared), nonce_(nonce), universe_(universe), params_(params),
      env_(env), self_(self), shape_(params.bucket_count, party_rounds(params)),
      full_diag_(self == sim::PartyId::kAlice) {
  const std::size_t k = params.bucket_count;
  const double kd = static_cast<double>(k);
  const int r = shape_.rounds();
  budget_ = params.worst_case_cutoff_factor > 0
                ? params.worst_case_cutoff_factor * kd *
                      std::max(1.0, util::iterated_log(r, kd))
                : std::numeric_limits<double>::infinity();

  // Bucket partition (the leaves' initial assignments S^(-1), T^(-1)):
  // batched hashing, then one stable counting sort into a CSR table.
  // Inputs are sorted and counting sort keeps input order, so every bucket
  // comes out sorted.
  util::Rng bucket_stream = shared_.stream("vt-buckets", nonce_);
  const auto h = hashing::PairwiseHash::sample(bucket_stream, universe_, k);
  const std::span<std::uint64_t> keys = env_.arena->alloc_u64(input.size());
  h.hash_many(input, keys);
  buckets_ = util::build_flat_buckets_values(keys, input, k, *env_.arena);
  assignment_.resize(k);
  for (std::size_t u = 0; u < k; ++u) assignment_[u] = buckets_.bucket(u);
  // Stage 0's nodes are the k leaves.
  bounds_.reserve(k + 1);
  shape_.level_bounds(0, bounds_);

  if (!full_diag_) return;
  const auto stages = static_cast<std::size_t>(r);
  diag_.stage_failures.assign(stages, 0);
  diag_.stage_eq_bits.assign(stages, 0);
  diag_.stage_bi_bits.assign(stages, 0);
  diag_.leaf_reruns.assign(k, 0);
}

std::uint64_t TreeParty::eq_nonce() const {
  return util::mix64(nonce_, util::mix64(0xE9, stage_));
}

std::size_t TreeParty::eq_bits(int stage) const {
  const double tower =
      stage_tower(shape_.rounds(), stage, params_.bucket_count);
  return static_cast<std::size_t>(std::max(
      1.0, std::ceil(params_.eq_bits_scale * 4.0 * std::log2(tower))));
}

void TreeParty::start_repair() {
  const double tower =
      stage_tower(shape_.rounds(), stage_, params_.bucket_count);
  const double failure = std::min(
      0.25, (1.0 / std::pow(tower, 4.0)) /
                std::max(1e-6, params_.bi_range_scale));
  const std::uint64_t nonce = util::mix64(nonce_, util::mix64(0xB1, stage_));
  const sim::PartyId opener = sim::other(hasher(stage_));
  if (bi_) {
    bi_->restart(nonce, failed_sets_, failure, opener);
  } else {
    bi_.emplace(shared_, nonce, universe_, failed_sets_, failure, env_, self_,
                opener);
  }
  repairing_ = true;
}

std::span<const util::BitSpan> TreeParty::node_contents() {
  nodes_.resize(bounds_.size() - 1);
  util::pack_sets(assignment_, bounds_, *env_.arena, nodes_);
  return nodes_;
}

bool TreeParty::fail_leaves() {
  const std::size_t nodes = bounds_.size() - 1;
  std::size_t leaves = 0;
  for (std::size_t v = 0; v < nodes; ++v) {
    if (verdicts_[v]) continue;
    if (full_diag_) {
      diag_.stage_failures[static_cast<std::size_t>(stage_)] += 1;
    }
    leaves += bounds_[v + 1] - bounds_[v];
  }
  failed_leaves_.clear();
  failed_sets_.clear();
  failed_leaves_.reserve(leaves);
  failed_sets_.reserve(leaves);
  for (std::size_t v = 0; v < nodes; ++v) {
    if (verdicts_[v]) continue;
    for (std::size_t u = bounds_[v]; u < bounds_[v + 1]; ++u) {
      failed_leaves_.push_back(u);
      failed_sets_.push_back(assignment_[u]);
    }
  }
  return leaves > 0;
}

void TreeParty::take_candidates() {
  for (std::size_t j = 0; j < failed_leaves_.size(); ++j) {
    const std::size_t u = failed_leaves_[j];
    assignment_[u] = bi_->candidate(j);
    if (full_diag_) diag_.leaf_reruns[u] += 1;
  }
  diag_.total_bi_runs += failed_leaves_.size();
  repairing_ = false;
}

void TreeParty::meter(const util::BitBuffer& frame, bool repair) {
  const std::uint64_t bits = frame.size_bits();
  bits_seen_ += bits;
  if (!full_diag_) return;
  auto& stage_bits = repair ? diag_.stage_bi_bits : diag_.stage_eq_bits;
  stage_bits[static_cast<std::size_t>(stage_)] += bits;
}

sim::Outgoing TreeParty::send(std::optional<sim::Outgoing> msg, bool repair) {
  meter(msg->bits, repair);
  const StagePhases& phases = stage_phases(stage_);
  msg->phase = msg->phase.empty()              ? phases.equality
               : msg->phase == "size_exchange" ? phases.size_exchange
                                               : phases.hash_exchange;
  msg->boundary = false;
  return std::move(*msg);
}

bool TreeParty::end_stage() {
  ++stage_;
  if (static_cast<double>(bits_seen_) > budget_) diag_.fallback_used = true;
  if (done()) return false;
  shape_.level_bounds(stage_, bounds_);
  return true;
}

util::Set TreeParty::output() const {
  std::size_t size = 0;
  for (util::SetView leaf : assignment_) size += leaf.size();
  util::Set out;
  out.reserve(size);
  for (util::SetView leaf : assignment_) {
    out.insert(out.end(), leaf.begin(), leaf.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

sim::Outgoing TreeParty::close_stage(sim::Outgoing last) {
  if (end_stage()) {
    last.keep_floor = true;  // this party hashes the next stage
  } else {
    // The run's last message is the checkpoint boundary, unless the
    // cutoff ends the protocol here.
    last.boundary = !diag_.fallback_used;
  }
  return last;
}

sim::Outgoing TreeParty::hashes_message() {
  // EqualityHasher reads the node contents only in start().
  util::ScratchArena::Frame contents_frame(*env_.arena);
  eq_.emplace(shared_, eq_nonce(), node_contents(), eq_bits(stage_),
              verdicts_, env_);
  return send(eq_->start(), /*repair=*/false);
}

std::optional<sim::Outgoing> TreeParty::start() {
  if (hasher(0) != self_) return std::nullopt;
  return hashes_message();
}

std::optional<sim::Outgoing> TreeParty::on_message(
    const util::BitBuffer& message) {
  if (done()) throw std::logic_error("tree party: unexpected message");
  const bool repair = repairing_;
  meter(message, repair);
  if (repair) {
    std::optional<sim::Outgoing> reply = bi_->on_message(message);
    if (!bi_->done()) {
      // The responder answers the opener's sizes with its own, its images
      // follow in next(); the opener hears the responder's sizes in
      // silence, as its images follow them in the same turn.
      if (!reply) return std::nullopt;
      return send(std::move(reply), /*repair=*/true);
    }
    take_candidates();
    // The opener's images close the stage; the responder has read them.
    if (reply) return close_stage(send(std::move(reply), /*repair=*/true));
    end_stage();
    return std::nullopt;
  }
  if (eq_) {
    // The hasher reads the verdicts. Whatever follows (the verifier's
    // sizes or its next hashes) comes in the verifier's turn.
    eq_->on_message(message);
    eq_.reset();
    if (fail_leaves()) {
      start_repair();
    } else {
      end_stage();
    }
    return std::nullopt;
  }
  // The verifier reads the hashes.
  std::optional<sim::Outgoing> verdicts;
  {
    util::ScratchArena::Frame contents_frame(*env_.arena);
    EqualityVerifier eq(shared_, eq_nonce(), node_contents(), eq_bits(stage_),
                        verdicts_, env_);
    verdicts = eq.on_message(message);
  }
  sim::Outgoing out = send(std::move(verdicts), /*repair=*/false);
  if (!fail_leaves()) return close_stage(std::move(out));
  start_repair();
  out.keep_floor = true;  // its sizes follow the verdicts
  return out;
}

std::optional<sim::Outgoing> TreeParty::next() {
  if (repairing_) {
    // The verifier's sizes after its verdicts; the responder's images
    // after its sizes.
    const bool verifies = hasher(stage_) != self_;
    return send(verifies ? bi_->start() : bi_->next(), /*repair=*/true);
  }
  if (done()) throw std::logic_error("tree party: no turn to continue");
  // This party closed the last stage and opens this one: its hashes end
  // the turn at the checkpoint boundary of the stage before.
  sim::Outgoing out = hashes_message();
  out.boundary = true;
  return out;
}

}  // namespace setint::core

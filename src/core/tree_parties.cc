#include "core/tree_parties.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/bitio.h"
#include "util/iterated_log.h"
#include "util/rng.h"

namespace setint::core {

TreePartyBase::TreePartyBase(sim::SharedRandomness shared,
                             std::uint64_t nonce, std::uint64_t universe,
                             util::Set input,
                             const VerificationTreeParams& params,
                             const ResourceLimits* limits)
    : shared_(shared), nonce_(nonce), universe_(universe), params_(params),
      env_(limits, pool_, arena_) {
  util::validate_set(input, universe);
  if (params.bucket_count == 0) {
    // A party cannot see the peer's size, so the public bound must be
    // explicit in this execution mode.
    throw std::invalid_argument("tree party: bucket_count must be explicit");
  }
  if (params.worst_case_cutoff_factor != 0.0) {
    throw std::invalid_argument("tree party: cutoff unsupported");
  }
  buckets_ = params.bucket_count;
  r_ = params.rounds_r != 0
           ? params.rounds_r
           : std::max(1, util::log_star(static_cast<double>(buckets_)));
  if (r_ < 2) throw std::invalid_argument("tree party: requires r >= 2");
  layout_ = verification_tree_layout(buckets_, r_);

  util::Rng bucket_stream = shared_.stream("vt-buckets", nonce_);
  const auto h =
      hashing::PairwiseHash::sample(bucket_stream, universe_, buckets_);
  assignment_.resize(buckets_);
  for (std::uint64_t x : input) assignment_[h(x)].push_back(x);
  for (auto& bucket : assignment_) std::sort(bucket.begin(), bucket.end());
}

std::uint64_t TreePartyBase::eq_nonce(int stage) const {
  return util::mix64(nonce_, util::mix64(0xE9, stage));
}

std::uint64_t TreePartyBase::bi_nonce(int stage) const {
  return util::mix64(nonce_, util::mix64(0xB1, stage));
}

std::size_t TreePartyBase::eq_bits(int stage) const {
  const double tower = std::max(
      2.0, util::iterated_log(r_ - stage - 1, static_cast<double>(buckets_)));
  return static_cast<std::size_t>(std::max(
      1.0, std::ceil(params_.eq_bits_scale * 4.0 * std::log2(tower))));
}

double TreePartyBase::bi_failure(int stage) const {
  const double tower = std::max(
      2.0, util::iterated_log(r_ - stage - 1, static_cast<double>(buckets_)));
  return std::min(0.25, (1.0 / std::pow(tower, 4.0)) /
                            std::max(1e-6, params_.bi_range_scale));
}

std::span<const util::BitBuffer> TreePartyBase::node_contents(int stage) {
  const auto& ranges = layout_[static_cast<std::size_t>(stage)];
  contents_.resize(ranges.size());
  for (std::size_t v = 0; v < ranges.size(); ++v) {
    contents_[v].clear();
    for (std::size_t u = ranges[v].first; u < ranges[v].second; ++u) {
      util::append_set(contents_[v], assignment_[u]);
    }
  }
  return contents_;
}

bool TreePartyBase::fail_leaves(const std::vector<bool>& pass, int stage) {
  failed_leaves_.clear();
  failed_sets_.clear();
  const auto& ranges = layout_[static_cast<std::size_t>(stage)];
  for (std::size_t v = 0; v < ranges.size(); ++v) {
    if (pass[v]) continue;
    for (std::size_t u = ranges[v].first; u < ranges[v].second; ++u) {
      failed_leaves_.push_back(u);
      failed_sets_.push_back(assignment_[u]);
    }
  }
  return !failed_leaves_.empty();
}

void TreePartyBase::take_candidates(BasicIntersectionParty& bi) {
  for (std::size_t j = 0; j < failed_leaves_.size(); ++j) {
    assignment_[failed_leaves_[j]] = bi.take_candidate(j);
  }
}

util::Set TreePartyBase::gather_output() const {
  util::Set out;
  for (const util::Set& bucket : assignment_) {
    out.insert(out.end(), bucket.begin(), bucket.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------- Alice ----------

TreeAlice::TreeAlice(sim::SharedRandomness shared, std::uint64_t nonce,
                     std::uint64_t universe, util::Set input,
                     const VerificationTreeParams& params,
                     const ResourceLimits* limits)
    : TreePartyBase(shared, nonce, universe, std::move(input), params,
                    limits) {}

std::optional<sim::Outgoing> TreeAlice::start() { return begin_stage(); }

std::optional<sim::Outgoing> TreeAlice::begin_stage() {
  if (stage_ >= r_) return std::nullopt;
  eq_.emplace(shared_, eq_nonce(stage_), node_contents(stage_),
              eq_bits(stage_), env_);
  return eq_->start();
}

std::optional<sim::Outgoing> TreeAlice::on_message(
    const util::BitBuffer& message) {
  if (bi_) {
    std::optional<sim::Outgoing> reply = bi_->on_message(message);
    if (!bi_->done()) return reply;
    take_candidates(*bi_);
    bi_.reset();
  } else {
    if (!eq_) throw std::logic_error("TreeAlice: unexpected message");
    eq_->on_message(message);
    const bool repair = fail_leaves(eq_->verdicts(), stage_);
    eq_.reset();
    if (repair) {
      bi_.emplace(shared_, bi_nonce(stage_), universe_, failed_sets_,
                  bi_failure(stage_), env_);
      return bi_->start();
    }
  }
  ++stage_;
  return begin_stage();
}

// ---------- Bob ----------

TreeBob::TreeBob(sim::SharedRandomness shared, std::uint64_t nonce,
                 std::uint64_t universe, util::Set input,
                 const VerificationTreeParams& params,
                 const ResourceLimits* limits)
    : TreePartyBase(shared, nonce, universe, std::move(input), params,
                    limits) {}

std::optional<sim::Outgoing> TreeBob::on_message(
    const util::BitBuffer& message) {
  if (done()) throw std::logic_error("TreeBob: unexpected message");
  if (bi_) {
    std::optional<sim::Outgoing> reply = bi_->on_message(message);
    if (bi_->done()) {
      take_candidates(*bi_);
      bi_.reset();
      ++stage_;
    }
    return reply;
  }
  EqualityBob eq(shared_, eq_nonce(stage_), node_contents(stage_),
                 eq_bits(stage_), env_);
  std::optional<sim::Outgoing> verdicts = eq.on_message(message);
  if (fail_leaves(eq.verdicts(), stage_)) {
    bi_.emplace(shared_, bi_nonce(stage_), universe_, failed_sets_,
                bi_failure(stage_), env_);
  } else {
    ++stage_;
  }
  return verdicts;
}

}  // namespace setint::core

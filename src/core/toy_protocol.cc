#include "core/toy_protocol.h"

#include <algorithm>
#include <cmath>

#include "core/basic_intersection.h"
#include "eq/equality.h"
#include "hashing/pairwise.h"
#include "util/arena.h"
#include "util/bitio.h"
#include "util/iterated_log.h"
#include "util/rng.h"

namespace setint::core {

IntersectionOutput toy_bucket_intersection(sim::Channel& channel,
                                           const sim::SharedRandomness& shared,
                                           std::uint64_t nonce,
                                           std::uint64_t universe,
                                           util::SetView s, util::SetView t,
                                           ToyProtocolDiag* diag) {
  validate_instance(universe, s, t);
  const std::size_t k = std::max<std::size_t>({s.size(), t.size(), 2});
  const double log_k = std::max(2.0, std::log2(static_cast<double>(k)));
  const auto buckets = static_cast<std::size_t>(
      std::max(1.0, static_cast<double>(k) / log_k));

  // Bucket partition: every bucket holds O(log k) elements w.h.p.
  util::Rng bucket_stream = shared.stream("toy-buckets", nonce);
  const auto h =
      hashing::PairwiseHash::sample(bucket_stream, universe, buckets);
  std::vector<util::Set> sa(buckets);
  std::vector<util::Set> tb(buckets);
  for (std::uint64_t x : s) sa[h(x)].push_back(x);
  for (std::uint64_t y : t) tb[h(y)].push_back(y);
  for (auto& b : sa) std::sort(b.begin(), b.end());
  for (auto& b : tb) std::sort(b.begin(), b.end());

  // Per-bucket Basic-Intersection failure target ~1/log k (the paper's
  // g_i : [n] -> [log^3 k] range: m = O(log k) elements against ~log^3 k
  // slots), and O(log k)-bit verification (error 1/k^2).
  const double bi_failure = std::min(0.25, 4.0 / log_k);
  const auto verify_bits = static_cast<std::size_t>(2.0 * log_k);

  ToyProtocolDiag local;
  local.buckets = buckets;

  std::vector<std::size_t> pending(buckets);
  for (std::size_t u = 0; u < buckets; ++u) pending[u] = u;

  constexpr std::uint64_t kMaxIterations = 20;
  for (std::uint64_t iter = 0; iter < kMaxIterations && !pending.empty();
       ++iter) {
    local.iterations = iter + 1;
    // Re-run (or first-run) Basic-Intersection on all pending buckets.
    std::vector<std::pair<util::SetView, util::SetView>> pairs;
    pairs.reserve(pending.size());
    for (std::size_t u : pending) pairs.emplace_back(sa[u], tb[u]);
    const std::vector<CandidatePair> cands = basic_intersection_batch(
        channel, shared, util::mix64(nonce, util::mix64(0x70, iter)),
        universe, pairs, bi_failure);
    for (std::size_t j = 0; j < pending.size(); ++j) {
      sa[pending[j]] = cands[j].s_candidate;
      tb[pending[j]] = cands[j].t_candidate;
    }
    local.total_reruns += iter == 0 ? 0 : pending.size();

    // Verification: one O(log k)-bit equality test per pending bucket.
    util::ScratchArena::Frame contents_frame(channel.scratch());
    std::vector<util::BitSpan> ca(pending.size());
    std::vector<util::BitSpan> cb(pending.size());
    for (std::size_t j = 0; j < pending.size(); ++j) {
      ca[j] = util::pack_set(sa[pending[j]], channel.scratch());
      cb[j] = util::pack_set(tb[pending[j]], channel.scratch());
    }
    const std::vector<bool> pass = eq::batch_equality_test(
        channel, shared, util::mix64(nonce, util::mix64(0x7E, iter)), ca, cb,
        verify_bits);

    std::vector<std::size_t> still_pending;
    for (std::size_t j = 0; j < pending.size(); ++j) {
      if (!pass[j]) still_pending.push_back(pending[j]);
    }
    pending = std::move(still_pending);
  }

  // Exactness backstop for buckets that never verified (essentially never
  // reached): exchange their raw contents.
  if (!pending.empty()) {
    local.fallback_buckets = pending.size();
    util::BitBuffer a_msg;
    for (std::size_t u : pending) util::append_set(a_msg, sa[u]);
    const util::BitBuffer a_delivered =
        channel.send(sim::PartyId::kAlice, std::move(a_msg), "toy-fallback-a");
    util::BitBuffer b_msg;
    for (std::size_t u : pending) util::append_set(b_msg, tb[u]);
    const util::BitBuffer b_delivered =
        channel.send(sim::PartyId::kBob, std::move(b_msg), "toy-fallback-b");
    util::BitReader ra(a_delivered);
    util::BitReader rb(b_delivered);
    for (std::size_t u : pending) {
      const util::Set peer_s = util::read_set(ra);
      const util::Set peer_t = util::read_set(rb);
      sa[u] = util::set_intersection(sa[u], peer_t);
      tb[u] = util::set_intersection(tb[u], peer_s);
    }
  }

  IntersectionOutput out;
  for (std::size_t u = 0; u < buckets; ++u) {
    out.alice.insert(out.alice.end(), sa[u].begin(), sa[u].end());
    out.bob.insert(out.bob.end(), tb[u].begin(), tb[u].end());
  }
  std::sort(out.alice.begin(), out.alice.end());
  std::sort(out.bob.begin(), out.bob.end());
  if (diag != nullptr) *diag = local;
  return out;
}

RunResult ToyBucketProtocol::run(std::uint64_t seed, std::uint64_t universe,
                                 util::SetView s, util::SetView t) const {
  sim::Channel channel;
  sim::SharedRandomness shared(seed);
  RunResult r;
  r.output =
      toy_bucket_intersection(channel, shared, /*nonce=*/0, universe, s, t);
  r.cost = channel.cost();
  return r;
}

}  // namespace setint::core

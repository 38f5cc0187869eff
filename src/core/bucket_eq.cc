#include "core/bucket_eq.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "eq/amortized_eq.h"
#include "hashing/pairwise.h"
#include "obs/tracer.h"
#include "sim/runtime.h"
#include "util/arena.h"
#include "util/bitio.h"
#include "util/flat_buckets.h"
#include "util/iterated_log.h"
#include "util/rng.h"

namespace setint::core {

namespace {

// One endpoint: the size exchange, then the amortized-equality party over
// this side's instance strings, which begin() hands it once both size
// vectors are known. k is the public bucket count; the input view and the
// caller's arena frame must outlive the run.
class BucketEqParty final : public eq::AmortizedEqParty {
 public:
  BucketEqParty(bool alice, const sim::SharedRandomness& shared,
                std::uint64_t nonce, std::uint64_t universe,
                util::SetView input, std::uint64_t k, int strength,
                sim::PartyEnv env)
      : AmortizedEqParty(alice, shared, util::mix64(nonce, 0xBEEF), {}, env),
        input_(input), k_(k) {
    if (strength < 3) throw std::invalid_argument("bucket_eq: strength < 3");
    const double nd = std::pow(static_cast<double>(k),
                               static_cast<double>(strength));
    if (nd > 0x1p62) throw std::invalid_argument("bucket_eq: range overflow");
    // Floor of 2^16 keeps tiny-k instances reliable at negligible cost.
    const std::uint64_t big_n =
        std::max<std::uint64_t>(1u << 16, static_cast<std::uint64_t>(nd));
    element_bits_ = util::ceil_log2(big_n);

    util::Rng hstream = shared.stream("bucket-eq-H", nonce);
    const auto big_h = hashing::PairwiseHash::sample(hstream, universe, big_n);
    util::Rng bstream = shared.stream("bucket-eq-h", nonce);
    const auto h = hashing::PairwiseHash::sample(bstream, big_n, k);

    // Batched bucketing: hash every element through big_h then h in two
    // array passes (division-free hash_many), then group by a stable
    // counting sort into a CSR table of indices into the input, so both
    // the element and its big_h image stay one lookup away.
    big_ = env_.arena->alloc_u64(input.size());
    big_h.hash_many(input, big_);
    const std::span<std::uint64_t> keys = env_.arena->alloc_u64(input.size());
    h.hash_many(big_, keys);
    buckets_ = util::build_flat_buckets(keys, k, *env_.arena);
  }

  std::optional<sim::Outgoing> start() override {
    if (!alice_) return std::nullopt;
    return sizes_message();
  }

  std::optional<sim::Outgoing> on_message(
      const util::BitBuffer& message) override {
    if (sizes_known_) return AmortizedEqParty::on_message(message);
    read_peer_sizes(message);
    begin(items_);
    if (!alice_) return sizes_message();
    return AmortizedEqParty::start();
  }

  std::size_t bucket_size(std::size_t i) const {
    return buckets_.bucket_size(i);
  }
  std::uint64_t joint_buckets() const { return joint_; }

  // Own elements of the instances declared equal, sorted.
  util::Set output() const {
    util::Set out;
    for (std::size_t j = 0; j < owner_.size(); ++j) {
      if (verdicts()[j]) out.push_back(input_[owner_[j]]);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

 private:
  sim::Outgoing sizes_message() const {
    // Bucket sizes sum to at most k, so gamma coding is O(k).
    sim::Outgoing msg{{}, alice_ ? "bucket-sizes-a" : "bucket-sizes-b",
                      "size_exchange", /*boundary=*/!alice_};
    for (std::size_t i = 0; i < k_; ++i) {
      msg.bits.append_gamma64(buckets_.bucket_size(i));
    }
    return msg;
  }

  // Lists the instances: per bucket, all (a-th of S_i, b-th of T_i) pairs
  // in lexicographic order — an ordering both parties derive from the two
  // size vectors.
  void read_peer_sizes(const util::BitBuffer& message) {
    util::BitReader reader = env_.reader(message);
    std::uint64_t peer_total = 0;  // at most k, the public size bound
    for (std::size_t i = 0; i < k_; ++i) {
      const std::uint64_t own = buckets_.bucket_size(i);
      const std::uint64_t peer = reader.read_gamma64();
      if (peer > k_ - peer_total) {
        throw std::invalid_argument("bucket_eq: peer sizes exceed k");
      }
      peer_total += peer;
      if (own == 0 || peer == 0) continue;
      joint_ += 1;
      const std::span<const std::uint64_t> mine = buckets_.bucket(i);
      const std::uint64_t na = alice_ ? own : peer;
      const std::uint64_t nb = alice_ ? peer : own;
      for (std::size_t a = 0; a < na; ++a) {
        for (std::size_t b = 0; b < nb; ++b) {
          const std::size_t x = mine[alice_ ? a : b];
          owner_.push_back(x);
          items_.emplace_back().append_bits(big_[x], element_bits_);
        }
      }
    }
    sizes_known_ = true;
  }

  util::SetView input_;
  std::uint64_t k_;
  unsigned element_bits_ = 0;
  std::span<std::uint64_t> big_;  // H of every own element
  util::FlatBuckets buckets_;     // indices into input_, by h(H(x))
  std::vector<std::size_t> owner_;      // per instance: own element index
  std::vector<util::BitBuffer> items_;  // per instance: H of that element
  std::uint64_t joint_ = 0;             // buckets non-empty on both sides
  bool sizes_known_ = false;
};

std::uint64_t public_k(std::uint64_t universe, util::SetView s,
                       util::SetView t) {
  validate_instance(universe, s, t);
  return std::max<std::uint64_t>({s.size(), t.size(), 2});
}

}  // namespace

struct BucketEqRun::State {
  State(sim::Channel& channel, const sim::SharedRandomness& shared,
        std::uint64_t nonce, std::uint64_t universe, util::SetView s,
        util::SetView t, int strength, Checkpoint* ckpt)
      : channel(channel),
        k(public_k(universe, s, t)),
        frame(channel.scratch()),
        alice(true, shared, nonce, universe, s, k, strength,
              sim::PartyEnv(channel)),
        bob(false, shared, nonce, universe, t, k, strength,
            sim::PartyEnv(channel)),
        span(channel.tracer(), "bucket_eq"),
        run(channel, alice, bob, 1u << 20, ckpt, "bucket_eq") {}

  sim::Channel& channel;
  std::uint64_t k;
  util::ScratchArena::Frame frame;
  BucketEqParty alice;
  BucketEqParty bob;
  obs::Span span;
  sim::TwoPartyRun run;
};

BucketEqRun::BucketEqRun(sim::Channel& channel,
                         const sim::SharedRandomness& shared,
                         std::uint64_t nonce, std::uint64_t universe,
                         util::SetView s, util::SetView t, int strength,
                         Checkpoint* ckpt)
    : state_(std::make_unique<State>(channel, shared, nonce, universe, s, t,
                                     strength, ckpt)) {}

BucketEqRun::~BucketEqRun() = default;

bool BucketEqRun::step() {
  State& st = *state_;
  if (!st.run.step()) return false;
  if (st.alice.verdicts() != st.bob.verdicts()) {
    throw std::logic_error("bucket_eq: verdict mismatch");
  }
  obs::Tracer* tracer = st.channel.tracer();
  if (tracer != nullptr) {
    for (std::size_t i = 0; i < st.k; ++i) {
      obs::observe(tracer, "bucket_eq.bucket_size",
                   st.alice.bucket_size(i) + st.bob.bucket_size(i));
    }
  }
  obs::count(tracer, "bucket_eq.joint_buckets", st.alice.joint_buckets());
  obs::count(tracer, "bucket_eq.instances", st.alice.verdicts().size());
  if (!st.alice.verdicts().empty()) st.alice.emit_metrics(tracer);
  return true;
}

IntersectionOutput BucketEqRun::output() const {
  return {state_->alice.output(), state_->bob.output()};
}

BucketEqStats BucketEqRun::stats() const {
  return {state_->alice.verdicts().size(), state_->alice.stats().levels};
}

IntersectionOutput bucket_eq_intersection(sim::Channel& channel,
                                          const sim::SharedRandomness& shared,
                                          std::uint64_t nonce,
                                          std::uint64_t universe,
                                          util::SetView s, util::SetView t,
                                          int strength,
                                          BucketEqStats* stats,
                                          Checkpoint* ckpt) {
  BucketEqRun run(channel, shared, nonce, universe, s, t, strength, ckpt);
  while (!run.step()) {
  }
  if (stats != nullptr) *stats = run.stats();
  return run.output();
}

RunResult BucketEqProtocol::run(std::uint64_t seed, std::uint64_t universe,
                                util::SetView s, util::SetView t) const {
  sim::Channel channel;
  sim::SharedRandomness shared(seed);
  RunResult r;
  r.output = bucket_eq_intersection(channel, shared, /*nonce=*/0, universe, s,
                                    t, strength_);
  r.cost = channel.cost();
  return r;
}

}  // namespace setint::core

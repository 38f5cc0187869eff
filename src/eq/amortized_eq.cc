#include "eq/amortized_eq.h"

#include <cmath>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>

#include "obs/tracer.h"
#include "util/iterated_log.h"
#include "util/rng.h"

namespace setint::eq {

namespace {

// Hash bits of every test at `level`: beta = Theta(2^(level/2)).
std::size_t level_bits(unsigned level) {
  return static_cast<std::size_t>(
      std::max(1.0, std::round(std::pow(2.0, level / 2.0))));
}

}  // namespace

AmortizedEqParty::AmortizedEqParty(bool alice,
                                   const sim::SharedRandomness& shared,
                                   std::uint64_t nonce,
                                   std::span<const util::BitBuffer> side,
                                   sim::PartyEnv env)
    : alice_(alice), shared_(shared), env_(env), nonce_(nonce) {
  begin(side);
}

void AmortizedEqParty::begin(std::span<const util::BitBuffer> side) {
  side_ = side;
  max_level_ = side.size() >= 2 ? util::ceil_log2(side.size()) : 0;
  equal_.assign(side.size(), true);
  tested_.items.resize(side.size());
  std::iota(tested_.items.begin(), tested_.items.end(), std::size_t{0});
  tested_.offsets.resize(side.size() + 1);
  std::iota(tested_.offsets.begin(), tested_.offsets.end(), std::size_t{0});
  done_ = side.empty();
}

std::optional<sim::Outgoing> AmortizedEqParty::start() {
  if (!alice_ || done_) return std::nullopt;
  eq_.emplace(shared_, test_nonce(), contents(), level_bits(level_), env_);
  return tagged(eq_->start());
}

std::optional<sim::Outgoing> AmortizedEqParty::on_message(
    const util::BitBuffer& message) {
  if (done_ || (alice_ && !eq_)) {
    throw std::logic_error("amortized_eq: unexpected message");
  }
  if (alice_) {
    eq_->on_message(message);  // Bob's verdicts
    advance(eq_->verdicts());
    eq_.reset();
    return AmortizedEqParty::start();
  }
  core::EqualityBob eq(shared_, test_nonce(), contents(), level_bits(level_),
                       env_);
  sim::Outgoing reply = tagged(eq.on_message(message));
  reply.boundary = advance(eq.verdicts());
  return reply;
}

// Each level's tests draw from their own nonce substream, so a resumed run
// sends exactly what an uninterrupted one would.
std::uint64_t AmortizedEqParty::test_nonce() const {
  return util::mix64(nonce_, util::mix64(level_, batch_));
}

// The tested groups' contents: gamma(length) + payload per item, so
// distinct item tuples encode distinctly. Level 0 tests the most groups,
// so later tests reuse its buffers.
std::span<const util::BitSpan> AmortizedEqParty::contents() {
  if (buffers_.size() < tested_.size()) buffers_.resize(tested_.size());
  spans_.clear();
  for (std::size_t g = 0; g < tested_.size(); ++g) {
    util::BitBuffer& out = buffers_[g];
    out.clear();
    for (const std::size_t idx : tested_[g]) {
      out.append_gamma64(side_[idx].size_bits());
      out.append_buffer(side_[idx]);
    }
    spans_.push_back(out);
  }
  return spans_;
}

// Tags a test's message with its tracer path. Outgoing::phase is a view,
// so the paths live in a table built once per process; levels never
// exceed ceil(log2 K) <= 64.
sim::Outgoing AmortizedEqParty::tagged(std::optional<sim::Outgoing> msg) const {
  static const std::vector<std::string> table = [] {
    std::vector<std::string> t;
    for (int level = 0; level <= 64; ++level) {
      t.push_back("amortized_eq/level=" + std::to_string(level));
      t.push_back(t.back() + "/binary_search");
    }
    return t;
  }();
  msg->phase = table[2 * level_ + (batch_ > 0 ? 1 : 0)];
  return std::move(*msg);
}

bool AmortizedEqParty::advance(const std::vector<bool>& pass) {
  // Passing groups survive the level. A failed singleton is certainly
  // unequal (the hash is one-sided); a larger failed group is halved, and
  // the halves form the next test of the level. All failed groups advance
  // together, so round cost stays O(level) per level.
  Groups halves;
  for (std::size_t g = 0; g < tested_.size(); ++g) {
    const std::span<const std::size_t> group = tested_[g];
    if (pass[g]) {
      survivors_.add(group);
    } else if (group.size() == 1) {
      equal_[group[0]] = false;
    } else {
      halves.add(group.first(group.size() / 2));
      halves.add(group.subspan(group.size() / 2));
    }
  }
  if (halves.size() > 0) {
    stats_.split_tests += halves.size();
    tested_ = std::move(halves);
    ++batch_;
    return false;
  }
  // Level complete: both parties agree on the verdicts so far.
  const std::size_t groups = survivors_.size();
  stats_.levels = level_ + 1;
  if (groups == 0 || (level_ >= max_level_ && groups <= 1)) {
    done_ = true;
    return false;
  }
  // Merge adjacent survivors pairwise for the next level: keep every
  // other group boundary.
  tested_.items = std::move(survivors_.items);
  tested_.offsets.clear();
  for (std::size_t g = 0; g < groups; g += 2) {
    tested_.offsets.push_back(survivors_.offsets[g]);
  }
  tested_.offsets.push_back(tested_.items.size());
  survivors_ = Groups{};
  ++level_;
  batch_ = 0;
  return true;
}

void AmortizedEqParty::emit_metrics(obs::Tracer* tracer) const {
  if (tracer == nullptr) return;
  obs::count(tracer, "eq.amortized_instances", equal_.size());
  for (unsigned level = 0; level < stats_.levels; ++level) {
    obs::observe(tracer, "eq.mask_bits", level_bits(level));
  }
  if (stats_.split_tests > 0) {
    obs::count(tracer, "eq.split_tests", stats_.split_tests);
  }
  obs::observe(tracer, "eq.levels", stats_.levels);
}

std::vector<bool> amortized_equality(sim::Channel& channel,
                                     const sim::SharedRandomness& shared,
                                     std::uint64_t nonce,
                                     const std::vector<util::BitBuffer>& xs,
                                     const std::vector<util::BitBuffer>& ys,
                                     AmortizedEqStats* stats,
                                     core::Checkpoint* ckpt) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("amortized_equality: size mismatch");
  }
  if (xs.empty()) return {};
  AmortizedEqRun run(channel, shared, nonce, xs, ys, ckpt);
  while (!run.step()) {
  }
  if (stats != nullptr) *stats = run.stats();
  return run.verdicts();
}

AmortizedEqRun::AmortizedEqRun(sim::Channel& channel,
                               const sim::SharedRandomness& shared,
                               std::uint64_t nonce,
                               std::span<const util::BitBuffer> xs,
                               std::span<const util::BitBuffer> ys,
                               core::Checkpoint* ckpt)
    : channel_(channel),
      alice_(true, shared, nonce, xs, sim::PartyEnv(channel)),
      bob_(false, shared, nonce, ys, sim::PartyEnv(channel)),
      run_(channel, alice_, bob_, 1u << 20, ckpt, "amortized_eq") {}

bool AmortizedEqRun::step() {
  if (!run_.step()) return false;
  // Both parties now hold the verdicts; they must agree.
  if (alice_.verdicts() != bob_.verdicts()) {
    throw std::logic_error("amortized_equality: verdict mismatch");
  }
  bob_.emit_metrics(channel_.tracer());
  return true;
}

}  // namespace setint::eq

// Theorem 3.1: O(k) communication via bucketing + amortized equality.
//
// The parties hash their elements through H: [n] -> [N], N = k^c (Fact 2.2
// makes H collision-free on S cup T w.h.p.), then bucket with
// h: [N] -> [k]. For every bucket i they form one equality instance per
// pair (s, t) in S_i x T_i — E[total instances] <= 6k by the binomial
// concentration argument of Theorem 3.1, equation (1) — and solve all of
// them with the amortized EQ^k protocol (eq/amortized_eq.h). An element is
// in the candidate intersection iff one of its instances resolves equal.
//
// Costs: O(k) expected bits; rounds are the amortized-equality protocol's
// O(log^2 k) (within the theorem's O(sqrt k) budget).
#pragma once

#include <cstdint>
#include <memory>

#include "core/checkpoint.h"
#include "core/protocol.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "util/set_util.h"

namespace setint::core {

struct BucketEqStats {
  std::uint64_t instances = 0;  // |E|, expected <= 6k
  std::uint64_t levels = 0;     // amortized-equality tree levels
};

// With a Checkpoint installed, the runner snapshots (tag "bucket_eq")
// after the size exchange (phase 1) and after every completed non-final
// amortized-equality level (phases 2, 3, ...) — so a crashed session
// resumes mid-equality-tree instead of re-sending everything.
IntersectionOutput bucket_eq_intersection(sim::Channel& channel,
                                          const sim::SharedRandomness& shared,
                                          std::uint64_t nonce,
                                          std::uint64_t universe,
                                          util::SetView s, util::SetView t,
                                          int strength = 3,
                                          BucketEqStats* stats = nullptr,
                                          Checkpoint* ckpt = nullptr);

// One run as a steppable object (parties in bucket_eq.cc): Alice sends
// her bucket sizes ("bucket-sizes-a"), Bob replies his ("bucket-sizes-b",
// the first boundary), both list the instances from the two size vectors
// and run the amortized-equality parties over them. Messages are metered
// under `bucket_eq/size_exchange` and `bucket_eq/amortized_eq/...`.
// bucket_eq_intersection steps it to completion, the "bucket_eq" machine
// (core/engine.h) one boundary at a time. The inputs, channel and
// checkpoint must outlive it.
class BucketEqRun {
 public:
  BucketEqRun(sim::Channel& channel, const sim::SharedRandomness& shared,
              std::uint64_t nonce, std::uint64_t universe, util::SetView s,
              util::SetView t, int strength, Checkpoint* ckpt = nullptr);
  ~BucketEqRun();
  bool step();
  IntersectionOutput output() const;
  BucketEqStats stats() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

class BucketEqProtocol final : public IntersectionProtocol {
 public:
  explicit BucketEqProtocol(int strength = 3) : strength_(strength) {}
  std::string name() const override { return "bucket-eq[FKNN]"; }
  RunResult run(std::uint64_t seed, std::uint64_t universe, util::SetView s,
                util::SetView t) const override;

 private:
  int strength_;
};

}  // namespace setint::core

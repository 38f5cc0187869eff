#include "core/engine.h"

#include <stdexcept>
#include <type_traits>
#include <variant>

#include "core/basic_intersection.h"
#include "core/bucket_eq.h"
#include "core/tree_parties.h"
#include "eq/amortized_eq.h"
#include "sim/randomness.h"
#include "util/rng.h"

namespace setint::core {

MachineStatus ProtocolMachine::step() {
  if (status_ == MachineStatus::kDone || status_ == MachineStatus::kFailed) {
    return status_;
  }
  try {
    status_ = advance() ? MachineStatus::kDone : MachineStatus::kRunning;
  } catch (const std::exception& e) {
    status_ = MachineStatus::kFailed;
    error_ = e.what();
  }
  steps_ += 1;
  return status_;
}

std::uint64_t fingerprint_set(std::uint64_t h, util::SetView s) {
  h = util::mix64(h, s.size());
  for (const std::uint64_t v : s) h = util::mix64(h, v);
  return h;
}

std::uint64_t fingerprint_bools(std::uint64_t h, const std::vector<bool>& v) {
  h = util::mix64(h, v.size());
  for (const bool b : v) h = util::mix64(h, b ? 0x0b : 0xa0);
  return h;
}

void make_amortized_eq_inputs(std::uint64_t seed, std::size_t count,
                              std::vector<util::BitBuffer>* xs,
                              std::vector<util::BitBuffer>* ys) {
  util::Rng rng(util::mix64(seed, 0xEDE0));
  xs->assign(count, {});
  ys->assign(count, {});
  for (std::size_t i = 0; i < count; ++i) {
    const unsigned bits = 8 + static_cast<unsigned>(rng.below(57));
    const std::uint64_t word =
        rng.next() & (bits == 64 ? ~std::uint64_t{0}
                                 : ((std::uint64_t{1} << bits) - 1));
    (*xs)[i].append_bits(word, bits);
    if (rng.below(2) == 0) {
      (*ys)[i] = (*xs)[i];
    } else {
      const std::uint64_t flip = std::uint64_t{1} << rng.below(bits);
      (*ys)[i].append_bits(word ^ flip, bits);
    }
  }
}

namespace {

// Machine over one core protocol: owns the channel and steps the run
// object the protocol's blocking entry point steps to completion. The run
// is built on the first step, so a bad config fails the session rather
// than the factory.
class CoreMachine final : public ProtocolMachine {
 public:
  CoreMachine(std::string_view kind, MachineConfig cfg)
      : kind_(kind), cfg_(std::move(cfg)), shared_(cfg_.seed) {
    channel_.enable_digest();
  }
  std::string_view kind() const override { return kind_; }
  sim::Channel& channel() override { return channel_; }

  std::uint64_t result_fingerprint() const override {
    const auto pair = [](std::uint64_t h, const IntersectionOutput& out) {
      return fingerprint_set(fingerprint_set(h, out.alice), out.bob);
    };
    if (const auto* bi = std::get_if<BasicIntersectionRun>(&run_)) {
      const CandidatePair c = bi->candidates(0);
      return pair(0xB1, {c.s_candidate, c.t_candidate});
    }
    if (const auto* vt = std::get_if<VerificationTreeRun>(&run_)) {
      return pair(0x57, vt->output());
    }
    if (const auto* be = std::get_if<BucketEqRun>(&run_)) {
      return pair(0xB7, be->output());
    }
    return fingerprint_bools(0xE9,
                             std::get<eq::AmortizedEqRun>(run_).verdicts());
  }

 protected:
  bool advance() override {
    if (std::holds_alternative<std::monostate>(run_)) make_run();
    return std::visit(
        [](auto& run) {
          if constexpr (std::is_same_v<decltype(run), std::monostate&>) {
            return true;
          } else {
            return run.step();
          }
        },
        run_);
  }

 private:
  void make_run() {
    if (kind_ == "bi") {
      util::validate_set(cfg_.s, cfg_.universe);
      util::validate_set(cfg_.t, cfg_.universe);
      const std::pair<util::SetView, util::SetView> one[] = {{cfg_.s, cfg_.t}};
      run_.emplace<BasicIntersectionRun>(channel_, shared_, cfg_.nonce,
                                         cfg_.universe, one,
                                         cfg_.bi_target_failure);
    } else if (kind_ == "vt") {
      run_.emplace<VerificationTreeRun>(channel_, shared_, cfg_.nonce,
                                        cfg_.universe, cfg_.s, cfg_.t,
                                        cfg_.tree);
    } else if (kind_ == "bucket_eq") {
      run_.emplace<BucketEqRun>(channel_, shared_, cfg_.nonce, cfg_.universe,
                                cfg_.s, cfg_.t, cfg_.bucket_eq_strength);
    } else {
      make_amortized_eq_inputs(cfg_.seed,
                               cfg_.eq_instances != 0
                                   ? cfg_.eq_instances
                                   : std::max<std::size_t>(cfg_.s.size(), 4),
                               &xs_, &ys_);
      run_.emplace<eq::AmortizedEqRun>(channel_, shared_, cfg_.nonce, xs_,
                                       ys_);
    }
  }

  std::string_view kind_;
  MachineConfig cfg_;
  sim::SharedRandomness shared_;
  std::vector<util::BitBuffer> xs_, ys_;  // "amortized_eq" instances
  sim::Channel channel_;
  std::variant<std::monostate, BasicIntersectionRun, VerificationTreeRun,
               BucketEqRun, eq::AmortizedEqRun>
      run_;
};

}  // namespace

std::unique_ptr<ProtocolMachine> make_machine(std::string_view kind,
                                              MachineConfig cfg) {
  for (const std::string_view known : kMachineKinds) {
    if (kind == known) {
      return std::make_unique<CoreMachine>(known, std::move(cfg));
    }
  }
  throw std::invalid_argument("make_machine: unknown kind '" +
                              std::string(kind) + "'");
}

}  // namespace setint::core

#include "fuzz_targets.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <string>

#include "core/resource_limits.h"
#include "setint.h"
#include "sim/adversary.h"
#include "sim/fault.h"
#include "util/bitio.h"
#include "util/set_util.h"

namespace setint::fuzz {

namespace {

// Abort loudly on an invariant violation so every harness (ctest driver,
// libFuzzer, sanitizer builds) reports it as a crash at the exact input.
#define FUZZ_CHECK(cond, msg)                                        \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "fuzz: invariant violated: %s [%s]\n",    \
                   (msg), #cond);                                    \
      std::abort();                                                  \
    }                                                                \
  } while (0)

// The only exceptions a decoder is allowed to reject hostile input with.
// Returns true if `fn` completed or threw one of them; aborts otherwise.
template <typename Fn>
bool run_decode(Fn&& fn, const char* what) {
  try {
    fn();
    return true;
  } catch (const core::ResourceLimitError&) {
  } catch (const std::invalid_argument&) {
  } catch (const std::out_of_range&) {
  } catch (const std::length_error&) {
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fuzz: %s threw unexpected %s\n", what, e.what());
    std::abort();
  } catch (...) {
    std::fprintf(stderr, "fuzz: %s threw a non-std exception\n", what);
    std::abort();
  }
  return false;
}

// Sequential byte cursor over the fuzz input; wraps deterministically at
// the end (reading past the input yields a fixed stream, never UB).
class Cursor {
 public:
  Cursor(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    if (size_ == 0) return 0;
    const std::uint8_t b = data_[pos_ % size_];
    ++pos_;
    return b;
  }

  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | u8();
    return v;
  }

  bool fresh() const { return pos_ < size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// The remainder of the input as a raw bit buffer — the shape wire frames
// actually arrive in.
util::BitBuffer bits_from(const std::uint8_t* data, std::size_t size) {
  util::BitBuffer buffer;
  for (std::size_t i = 0; i < size; ++i) {
    for (unsigned b = 0; b < 8; ++b) buffer.append_bit((data[i] >> b) & 1);
  }
  return buffer;
}

// A small canonical set derived from the cursor: bounded size, bounded
// universe, so end-to-end targets stay fast on any input.
util::Set small_set_from(Cursor& cursor, std::uint64_t universe,
                         std::size_t max_size) {
  const std::size_t size = cursor.u8() % (max_size + 1);
  util::Set out;
  std::uint64_t next = cursor.u8() % 7;
  for (std::size_t i = 0; i < size && next < universe; ++i) {
    out.push_back(next);
    next += 1 + cursor.u8() % 16;
  }
  return out;
}

// Limits tight enough that every decoder-level cap is reachable from a
// few-hundred-byte input.
core::ResourceLimits tight_limits() {
  core::ResourceLimits limits;
  limits.max_decoded_items = 512;
  return limits;
}

// ---- targets -------------------------------------------------------------

// Targets 0-3: raw decoder surfaces. Each decodes the input buffer until
// exhaustion or a (named) rejection; the work per call is bounded by the
// input length, and the items budget bounds materialized memory.
void target_gamma(const std::uint8_t* data, std::size_t size) {
  const util::BitBuffer buffer = bits_from(data, size);
  const core::ResourceLimits limits = tight_limits();
  util::BitReader reader(buffer, &limits);
  run_decode(
      [&] {
        while (!reader.exhausted()) {
          (void)reader.read_gamma64();
          reader.charge_items(1, "fuzz-gamma");
        }
      },
      "gamma decode");
}

void target_rice(const std::uint8_t* data, std::size_t size) {
  Cursor cursor(data, size);
  const unsigned b = cursor.u8() % 24;
  const util::BitBuffer buffer = bits_from(data, size);
  const core::ResourceLimits limits = tight_limits();
  util::BitReader reader(buffer, &limits);
  run_decode(
      [&] {
        while (!reader.exhausted()) {
          (void)reader.read_rice(b);
          reader.charge_items(1, "fuzz-rice");
        }
      },
      "rice decode");
}

void target_read_set(const std::uint8_t* data, std::size_t size) {
  const util::BitBuffer buffer = bits_from(data, size);
  const core::ResourceLimits limits = tight_limits();
  util::BitReader reader(buffer, &limits);
  util::Set decoded;
  if (run_decode([&] { decoded = util::read_set(reader); }, "read_set")) {
    FUZZ_CHECK(util::is_canonical_set(decoded),
               "read_set returned a non-canonical set");
    FUZZ_CHECK(decoded.size() <= limits.max_decoded_items,
               "read_set materialized more items than the budget");
  }
}

void target_read_set_rice(const std::uint8_t* data, std::size_t size) {
  Cursor cursor(data, size);
  const std::uint64_t universe = 2 + cursor.u64() % (1u << 20);
  const util::BitBuffer buffer = bits_from(data, size);
  const core::ResourceLimits limits = tight_limits();
  util::BitReader reader(buffer, &limits);
  util::Set decoded;
  if (run_decode([&] { decoded = util::read_set_rice(reader, universe); },
                 "read_set_rice")) {
    FUZZ_CHECK(util::is_canonical_set(decoded),
               "read_set_rice returned a non-canonical set");
    FUZZ_CHECK(decoded.size() <= limits.max_decoded_items,
               "read_set_rice materialized more items than the budget");
  }
}

// Target 4: honest end-to-end differential — the facade vs
// std::set_intersection on inputs derived from the fuzz bytes.
void target_e2e_honest(const std::uint8_t* data, std::size_t size) {
  Cursor cursor(data, size);
  const std::uint64_t universe = 64 + cursor.u64() % 4096;
  const util::Set s = small_set_from(cursor, universe, 12);
  const util::Set t = small_set_from(cursor, universe, 12);
  IntersectOptions options;
  options.universe = universe;
  options.seed = cursor.u64() | 1;
  const IntersectResult result = intersect(s, t, options);
  const util::Set oracle = util::set_intersection(s, t);
  FUZZ_CHECK(result.verified, "honest run not verified");
  FUZZ_CHECK(!result.degraded, "honest run flagged degraded");
  FUZZ_CHECK(result.intersection == oracle,
             "honest run disagrees with std::set_intersection");
}

// Target 5: end-to-end with a Byzantine Bob, workload-derived limits and
// a drawn session budget. The one guarantee a lying peer leaves standing:
// the honest side never crashes, the run terminates, and the output is a
// subset of its own input. A refused run answers nothing, flagged neither
// verified nor degraded.
void target_e2e_adversary(const std::uint8_t* data, std::size_t size) {
  Cursor cursor(data, size);
  const std::uint64_t universe = 64 + cursor.u64() % 4096;
  const util::Set s = small_set_from(cursor, universe, 12);
  const util::Set t = small_set_from(cursor, universe, 12);
  if (s.empty() || t.empty()) return;

  sim::AdversarySpec spec;
  spec.party = sim::PartyId::kBob;
  static constexpr sim::AttackClass kClasses[] = {
      sim::AttackClass::kInflatedLength, sim::AttackClass::kUnaryBomb,
      sim::AttackClass::kRandomGarbage,  sim::AttackClass::kReplay,
      sim::AttackClass::kTruncate,       sim::AttackClass::kSemanticLie,
      sim::AttackClass::kMixed,
  };
  spec.attack = kClasses[cursor.u8() % std::size(kClasses)];
  spec.attack_prob = (1 + cursor.u8() % 4) / 4.0;
  spec.frame_bits = 64 + cursor.u64() % 4096;
  spec.lie_universe = universe;
  spec.seed = cursor.u64() | 1;
  sim::Adversary adversary(spec);

  IntersectOptions options;
  options.universe = universe;
  options.seed = cursor.u64() | 1;
  options.adversary = &adversary;
  options.limits = core::ResourceLimits::for_workload(
      universe, std::max(s.size(), t.size()));
  options.retry.max_attempts = 4;
  options.retry.degraded_attempts = 2;
  // A cap drawn as 0 is off.
  options.budget.max_bits = cursor.u64() % 8192;
  options.budget.max_rounds = cursor.u64() % 64;
  options.budget.refuse_on_exhaustion = cursor.u8() % 2 == 1;

  IntersectResult result;
  try {
    result = intersect(s, t, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fuzz: adversary run escaped the retry layer: %s\n",
                 e.what());
    std::abort();
  }
  FUZZ_CHECK(util::is_subset(result.intersection, s),
             "honest side's output is not a subset of its own input");
  if (result.refused) {
    FUZZ_CHECK(result.intersection.empty(), "refused run answered");
    FUZZ_CHECK(!result.verified && !result.degraded,
               "refused run flagged verified or degraded");
  }
  if (adversary.stats().frames_crafted == 0 &&
      result.budget_reason == core::BudgetDimension::kNone) {
    // The adversary left every frame alone and the budget held: the
    // differential oracle applies in full.
    const util::Set oracle = util::set_intersection(s, t);
    FUZZ_CHECK(result.intersection == oracle,
               "crafted-frame-free run disagrees with the oracle");
  }
}

// Target 6: end-to-end under stochastic faults. The PR-2 contract:
// verified implies exact, otherwise the run is flagged degraded and the
// answer is a superset of the true intersection.
void target_e2e_faults(const std::uint8_t* data, std::size_t size) {
  Cursor cursor(data, size);
  const std::uint64_t universe = 64 + cursor.u64() % 4096;
  const util::Set s = small_set_from(cursor, universe, 12);
  const util::Set t = small_set_from(cursor, universe, 12);
  if (s.empty() || t.empty()) return;

  sim::FaultSpec spec;
  spec.flip_per_bit = (cursor.u8() % 32) / 1024.0;
  spec.truncate_prob = (cursor.u8() % 16) / 256.0;
  spec.drop_prob = (cursor.u8() % 16) / 256.0;
  spec.duplicate_prob = (cursor.u8() % 16) / 256.0;
  spec.seed = cursor.u64() | 1;
  sim::FaultPlan plan(spec);

  IntersectOptions options;
  options.universe = universe;
  options.seed = cursor.u64() | 1;
  options.fault_plan = &plan;
  options.limits = core::ResourceLimits::for_workload(
      universe, std::max(s.size(), t.size()));
  options.retry.max_attempts = 6;
  options.retry.degraded_attempts = 2;

  IntersectResult result;
  try {
    result = intersect(s, t, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fuzz: faulty run escaped the retry layer: %s\n",
                 e.what());
    std::abort();
  }
  const util::Set oracle = util::set_intersection(s, t);
  if (result.verified) {
    FUZZ_CHECK(!result.degraded, "verified and degraded at once");
    FUZZ_CHECK(result.intersection == oracle,
               "verified faulty run disagrees with the oracle");
  } else {
    FUZZ_CHECK(result.degraded, "unverified result not flagged degraded");
    FUZZ_CHECK(util::is_subset(oracle, result.intersection),
               "degraded answer is not a superset of the intersection");
  }
}

}  // namespace

const char* target_name(unsigned index) {
  switch (index % kNumTargets) {
    case 0: return "gamma";
    case 1: return "rice";
    case 2: return "read_set";
    case 3: return "read_set_rice";
    case 4: return "e2e_honest";
    case 5: return "e2e_adversary";
    case 6: return "e2e_faults";
  }
  return "unknown";
}

int run_one(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return 0;
  const unsigned target = data[0] % kNumTargets;
  const std::uint8_t* body = data + 1;
  const std::size_t body_size = size - 1;
  switch (target) {
    case 0: target_gamma(body, body_size); break;
    case 1: target_rice(body, body_size); break;
    case 2: target_read_set(body, body_size); break;
    case 3: target_read_set_rice(body, body_size); break;
    case 4: target_e2e_honest(body, body_size); break;
    case 5: target_e2e_adversary(body, body_size); break;
    case 6: target_e2e_faults(body, body_size); break;
  }
  return 0;
}

}  // namespace setint::fuzz

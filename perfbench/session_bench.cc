// session_bench — end-to-end benchmark of certified set-intersection
// sessions through setint's public API, with per-layer numbers from a
// traced run.
//
//   session_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each run builds its inputs from --seed, warms the library's caches
// (timed as setup_s), runs a closed loop for --seconds, checks every
// answer against the generator's ground truth, and prints one JSON object
// as the last line of stdout: {correct, attempted, failed, metrics}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// The line before it is the run's provenance (workload, loop, clients,
// seed, nproc, build type, SIMD tier). perfbench/METRICS.md defines every
// metric and workload.
//
// Spans are recorded here, around calls into each module's public
// functions; nothing inside the library is instrumented.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/bucket_eq.h"
#include "core/one_round_hash.h"
#include "core/verification_tree.h"
#include "eq/equality.h"
#include "hashing/pairwise.h"
#include "hashing/primes.h"
#include "setint.h"
#include "sim/channel.h"
#include "sim/fault.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "util/bitio.h"
#include "util/rng.h"
#include "util/set_util.h"

// Heap accounting for setint.allocs_per_session: every operator new in
// this binary (and so in the statically linked library) bumps two relaxed
// counters. The counters are read around library calls only. GCC cannot
// tell that the replaced operator new allocates with malloc.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using namespace setint;

constexpr std::uint64_t kUniverse = std::uint64_t{1} << 32;
// Setups per run; setup_s is their median.
constexpr int kSetups = 5;

std::uint64_t now_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
std::uint64_t thread_cpu_ns() { return now_ns(CLOCK_THREAD_CPUTIME_ID); }
std::uint64_t process_cpu_ns() { return now_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::uint64_t wall_ns() { return now_ns(CLOCK_MONOTONIC); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Work counters read around a library call: heap allocations and
// next_prime_at_least lookups (hashing::prime_cache_stats).
struct Work {
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t prime_calls = 0;
  std::uint64_t prime_hits = 0;

  static Work now() {
    const hashing::PrimeCacheStats st = hashing::prime_cache_stats();
    return {g_allocs.load(std::memory_order_relaxed),
            g_alloc_bytes.load(std::memory_order_relaxed), st.hits + st.misses,
            st.hits};
  }
  Work operator-(const Work& o) const {
    return {allocs - o.allocs, alloc_bytes - o.alloc_bytes,
            prime_calls - o.prime_calls, prime_hits - o.prime_hits};
  }
};

// One timed unit of a workload's loop: a facade session, a round-robin of
// core protocol calls, or one run_batch call.
struct Sample {
  std::uint64_t cpu_ns = 0;   // thread CPU (process CPU for batch calls)
  std::uint64_t wall_ns = 0;
  std::uint64_t sessions = 0;
  std::uint64_t exact = 0;    // sessions whose answer is exact and verified
  std::uint64_t bits = 0;
  std::uint64_t rounds = 0;
  std::uint64_t attempts = 0;
  std::uint64_t elems = 0;    // sum of |S| + |T|
  std::uint64_t messages = 0;
  std::uint64_t faults = 0;
  std::uint64_t bi_runs = 0;           // VT Basic-Intersection runs
  std::uint64_t certificate_bits = 0;  // certificate input size
  Work work;

  double cpu_us_per_session() const {
    return ratio(static_cast<double>(cpu_ns) / 1e3,
                 static_cast<double>(sessions));
  }
};

// The counters two runs with the same seed must reproduce exactly.
std::vector<std::uint64_t> fingerprint(const Sample& s, bool with_work) {
  std::vector<std::uint64_t> f = {s.sessions, s.exact,    s.bits,
                                  s.rounds,   s.attempts, s.elems,
                                  s.messages, s.faults,   s.bi_runs,
                                  s.certificate_bits};
  if (with_work) {
    f.insert(f.end(), {s.work.allocs, s.work.alloc_bytes, s.work.prime_calls,
                       s.work.prime_hits});
  }
  return f;
}

// Spans around calls into the library, kept in memory for the traced run.
// A span's parent is the facade session it decomposes (-1 for none); a
// layer's self time is its span minus its children's.
struct SpanRecord {
  std::string layer;
  long parent;
  std::uint64_t cpu_ns;
};

class SpanLog {
 public:
  long add(std::string layer, long parent, std::uint64_t cpu_ns) {
    spans_.push_back({std::move(layer), parent, cpu_ns});
    return static_cast<long>(spans_.size()) - 1;
  }
  template <class F>
  auto time(const std::string& layer, long parent, F&& f) {
    const std::uint64_t t0 = thread_cpu_ns();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      add(layer, parent, thread_cpu_ns() - t0);
    } else {
      auto out = f();
      add(layer, parent, thread_cpu_ns() - t0);
      return out;
    }
  }
  std::vector<double> us(const std::string& layer) const {
    std::vector<double> out;
    for (const SpanRecord& s : spans_) {
      if (s.layer == layer) out.push_back(static_cast<double>(s.cpu_ns) / 1e3);
    }
    return out;
  }
  // Parent span durations and their children's sums, per parent with
  // children.
  std::vector<std::pair<double, double>> decomposition() const {
    std::map<long, double> children;
    for (const SpanRecord& s : spans_) {
      if (s.parent >= 0) children[s.parent] += static_cast<double>(s.cpu_ns);
    }
    std::vector<std::pair<double, double>> out;
    for (const auto& [parent, sum] : children) {
      out.emplace_back(static_cast<double>(spans_[parent].cpu_ns) / 1e3,
                       sum / 1e3);
    }
    return out;
  }

 private:
  std::vector<SpanRecord> spans_;
};

// Named metrics in print order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

void set_metric(Metrics& m, const std::string& name, double value) {
  for (Metric& x : m) {
    if (x.name == name) {
      x.value = std::isfinite(value) ? value : 0.0;
      return;
    }
  }
  throw std::logic_error("unknown metric " + name);
}

double get_metric(const Metrics& m, const std::string& name) {
  for (const Metric& x : m) {
    if (x.name == name) return x.value;
  }
  throw std::logic_error("unknown metric " + name);
}

// Per-layer metrics, in BENCHMARK.json order. A layer a workload does not
// call reports 0.
Metrics layer_table() {
  return {
      {"setint.session_cpu_us_p50", 0, "us"},
      {"setint.session_cpu_us_p90", 0, "us"},
      {"setint.sessions_per_s", 0, "1/s"},
      {"setint.cpu_ns_per_wire_bit", 0, "ns/bit"},
      {"multiparty.self_us", 0, "us"},
      {"core.vt_us", 0, "us"},
      {"core.vt_bi_runs", 0, "count"},
      {"core.bucket_eq_us", 0, "us"},
      {"core.bucket_eq_instances", 0, "count"},
      {"core.one_round_hash_us", 0, "us"},
      {"eq.certificate_us", 0, "us"},
      {"eq.certificate_share", 0, "ratio"},
      {"eq.certificate_payload_bits", 0, "bits"},
      {"hashing.next_prime_calls", 0, "count"},
      {"hashing.prime_memo_hit_ratio", 0, "ratio"},
      {"hashing.pairwise_sample_us", 0, "us"},
      {"hashing.prime_share_est", 0, "ratio"},
      {"util.set_codec_ns_per_bit", 0, "ns/bit"},
      {"setint.allocs_per_session", 0, "count"},
      {"setint.alloc_bytes_per_session", 0, "bytes"},
      {"sim.messages_per_session", 0, "count"},
      {"sim.send_ns_per_bit", 0, "ns/bit"},
      {"sim.send_ns_per_bit_faulted", 0, "ns/bit"},
      {"sim.faults_per_session", 0, "count"},
      {"simd.intersect_ns_per_elem", 0, "ns/elem"},
      {"runtime.parallel_efficiency", 0, "ratio"},
      {"obs.tracer_overhead_pct", 0, "%"},
      {"trace.overhead_pct", 0, "%"},
      {"trace.decomposition_gap_pct", 0, "%"},
  };
}

// Thread CPU per call of f, median of five timed batches of at least
// `min_ns` each.
double ns_per_call(const std::function<void()>& f, std::uint64_t min_ns) {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    std::uint64_t calls = 0;
    const std::uint64_t t0 = thread_cpu_ns();
    std::uint64_t dt = 0;
    do {
      f();
      ++calls;
      dt = thread_cpu_ns() - t0;
    } while (dt < min_ns);
    batches.push_back(static_cast<double>(dt) / static_cast<double>(calls));
  }
  return median(batches);
}

struct Pair {
  util::Set s;
  util::Set t;
  util::Set expected;
};

Pair make_pair(util::Rng& rng, std::size_t k) {
  util::SetPair p = util::random_set_pair(rng, kUniverse, k, k / 2);
  return {std::move(p.s), std::move(p.t), std::move(p.expected_intersection)};
}

// Layer microbenchmarks on a workload's own inputs, shared by every
// workload's traced run.
void measure_kernels(const std::vector<Pair>& pairs, double bits_per_message,
                     std::uint64_t seed, Metrics& m) {
  constexpr std::uint64_t kMinNs = 20'000'000;
  const std::size_t n = std::min<std::size_t>(pairs.size(), 8);
  double codec_ns = 0;
  double codec_bits = 0;
  double intersect_ns = 0;
  double elems = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Pair& p = pairs[i];
    std::size_t bits = 0;
    codec_ns += ns_per_call(
        [&] {
          util::BitBuffer bs;
          util::BitBuffer bt;
          util::append_set(bs, p.s);
          util::append_set(bt, p.t);
          util::BitReader rs(bs);
          util::BitReader rt(bt);
          if (util::read_set(rs).size() + util::read_set(rt).size() !=
              p.s.size() + p.t.size()) {
            throw std::runtime_error("set codec round trip lost elements");
          }
          bits = bs.size_bits() + bt.size_bits();
        },
        kMinNs / n);
    codec_bits += static_cast<double>(bits);
    std::vector<std::uint64_t> out(std::min(p.s.size(), p.t.size()) +
                                   simd::kIntersectPadding);
    intersect_ns += ns_per_call(
        [&] {
          if (simd::intersect_sorted(p.s, p.t, out) != p.expected.size()) {
            throw std::runtime_error("simd intersect disagrees with ground truth");
          }
        },
        kMinNs / n);
    elems += static_cast<double>(p.s.size() + p.t.size());
  }
  set_metric(m, "util.set_codec_ns_per_bit", ratio(codec_ns, codec_bits));
  set_metric(m, "simd.intersect_ns_per_elem", ratio(intersect_ns, elems));

  // Channel::send on a session-sized message, clean and with the lossy
  // workload's fault plan (whose damaged frames throw at delivery).
  util::BitBuffer payload;
  const std::size_t payload_bits =
      std::max<std::size_t>(64, static_cast<std::size_t>(bits_per_message));
  util::Rng rng(util::mix64(seed, 0x5E4D));
  for (std::size_t b = 0; b < payload_bits; ++b) payload.append_bit(rng.coin());
  auto send_ns_per_bit = [&](sim::FaultPlan* plan) {
    sim::Channel channel;
    channel.set_fault_plan(plan);
    std::uint64_t turn = 0;
    const double ns = ns_per_call(
        [&] {
          const sim::PartyId from =
              (turn++ & 1) ? sim::PartyId::kBob : sim::PartyId::kAlice;
          try {
            channel.send(from, payload);
          } catch (const sim::ChannelIntegrityError&) {
          }
        },
        kMinNs);
    return ns / static_cast<double>(payload_bits);
  };
  set_metric(m, "sim.send_ns_per_bit", send_ns_per_bit(nullptr));
  sim::FaultPlan plan(sim::FaultSpec{.flip_per_bit = 1e-4, .seed = seed});
  set_metric(m, "sim.send_ns_per_bit_faulted", send_ns_per_bit(&plan));

  // PairwiseHash::sample at the workload's universe: one random prime
  // search per call, from a fresh stream each time.
  std::uint64_t stream = 0;
  const std::uint64_t range = pairs.empty() ? 2 : pairs.front().s.size();
  set_metric(m, "hashing.pairwise_sample_us",
             ns_per_call(
                 [&] {
                   util::Rng r(util::mix64(seed, util::mix64(0x9A1, ++stream)));
                   const hashing::PairwiseHash h =
                       hashing::PairwiseHash::sample(r, kUniverse, range);
                   if (h.range() != range) throw std::logic_error("range");
                 },
                 kMinNs) /
                 1e3);
}

// The core protocols the facade does not call, bucket-EQ (with amortized
// equality) and one-round hashing, timed once each at k = 65536 on fresh
// channels.
void measure_core_protocols(std::uint64_t seed, Metrics& m) {
  util::Rng rng(util::mix64(seed, 0xC0DE));
  const Pair p = make_pair(rng, 65536);
  const sim::SharedRandomness shared(util::mix64(seed, 0xC0DE));
  sim::Channel beq;
  core::BucketEqStats stats;
  std::uint64_t t0 = thread_cpu_ns();
  (void)core::bucket_eq_intersection(beq, shared, 1, kUniverse, p.s, p.t, 3,
                                     &stats);
  set_metric(m, "core.bucket_eq_us",
             static_cast<double>(thread_cpu_ns() - t0) / 1e3);
  set_metric(m, "core.bucket_eq_instances", static_cast<double>(stats.instances));
  sim::Channel orh;
  t0 = thread_cpu_ns();
  (void)core::one_round_hash(orh, shared, 2, kUniverse, p.s, p.t);
  set_metric(m, "core.one_round_hash_us",
             static_cast<double>(thread_cpu_ns() - t0) / 1e3);
}

void check_answer(const IntersectResult& r, const Pair& p, Sample& s,
                  std::string& violation) {
  if (r.verified && !r.degraded) {
    if (r.intersection != p.expected) {
      violation = "a verified answer differs from S cap T";
      return;
    }
    s.exact += 1;
  } else if (r.degraded) {
    // A degraded answer must still be a superset of S cap T inside S.
    if (!util::is_subset(p.expected, r.intersection) ||
        !util::is_subset(r.intersection, p.s)) {
      violation = "a degraded answer is not a superset of S cap T within S";
    }
  }
}

class Workload {
 public:
  Workload(std::uint64_t seed, bool traced) : seed_(seed), traced_(traced) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual int threads() const { return 1; }
  // Units whose counters are reported as the deterministic counters.
  virtual std::size_t counted() const = 0;
  // Units the loop always runs, however long they take.
  virtual std::size_t min_units() const { return counted(); }
  // Whether allocation and prime counters are deterministic (single
  // thread).
  virtual bool deterministic_work() const { return true; }
  // Inputs from the seed plus warm-up; excluded from every timing.
  virtual void setup() = 0;
  virtual Sample run(std::size_t i) = 0;
  // Traced run only: per-layer metrics from the samples and spans.
  virtual void layers(const std::vector<Sample>& samples, Metrics& m) = 0;
  // Representative inputs for the layer microbenchmarks.
  virtual std::vector<Pair> kernel_pairs() const = 0;
  // Checks after the loop (run() records violations as it goes).
  virtual void finish(const std::vector<Sample>&) {}

  const std::string& violation() const { return violation_; }

 protected:
  // Warm-up runs a fixed number of sessions, whatever the seed, so that
  // set-up does the same work on every run and timed sessions find the
  // prime memo, the VT layout cache and the allocator's arenas grown.
  static void warm_up(const std::function<void(std::size_t)>& session,
                      std::size_t sessions) {
    for (std::size_t i = 0; i < sessions; ++i) session(i);
  }

  const std::uint64_t seed_;
  const bool traced_;
  SpanLog spans_;
  std::string violation_;
};

// Closed loop, one client, setint::intersect per session. certified_k4096
// runs clean; lossy_k512 runs every session over its own seeded FaultPlan.
class FacadeWorkload final : public Workload {
 public:
  FacadeWorkload(std::uint64_t seed, bool traced, std::size_t k, bool lossy)
      : Workload(seed, traced), k_(k), lossy_(lossy) {}

  std::size_t counted() const override { return lossy_ ? 1024 : 64; }
  // A traced session runs about three times (session, replay, tracer), so
  // the traced loop would stop near the counted prefix; 100 sessions leave
  // ten beyond setint.session_cpu_us_p90.
  std::size_t min_units() const override {
    return traced_ ? std::max<std::size_t>(counted(), 100) : counted();
  }

  void setup() override {
    hashing::prime_cache_clear();
    util::Rng rng(util::mix64(seed_, 0x1A7));
    pool_.clear();
    const std::size_t pool = lossy_ ? 2048 : 384;
    for (std::size_t i = 0; i < pool; ++i) pool_.push_back(make_pair(rng, k_));
    warm_up(
        [&](std::size_t i) {
          const Pair& p = pool_[i % pool_.size()];
          IntersectOptions opt = options(util::mix64(seed_, ~i));
          std::optional<sim::FaultPlan> plan = fault_plan(opt.seed);
          opt.fault_plan = plan ? &*plan : nullptr;
          (void)setint::intersect(p.s, p.t, opt);
        },
        lossy_ ? 64 : 12);
  }

  Sample run(std::size_t i) override {
    const Pair& p = pool_[i % pool_.size()];
    IntersectOptions opt = options(util::mix64(seed_, i));
    std::optional<sim::FaultPlan> plan = fault_plan(opt.seed);
    opt.fault_plan = plan ? &*plan : nullptr;

    Sample s;
    const Work w0 = Work::now();
    const std::uint64_t wall0 = wall_ns();
    const std::uint64_t cpu0 = thread_cpu_ns();
    const IntersectResult r = setint::intersect(p.s, p.t, opt);
    s.cpu_ns = thread_cpu_ns() - cpu0;
    s.wall_ns = wall_ns() - wall0;
    s.work = Work::now() - w0;
    s.sessions = 1;
    s.bits = r.bits;
    s.rounds = r.rounds;
    s.attempts = r.repetitions;
    s.elems = p.s.size() + p.t.size();
    s.messages = r.report.cost.messages;
    s.faults = plan ? plan->stats().faults_injected : 0;
    check_answer(r, p, s, violation_);
    if (traced_) decompose(p, opt, r, s);
    return s;
  }

  void layers(const std::vector<Sample>&, Metrics& m) override {
    set_metric(m, "obs.tracer_overhead_pct", 100.0 * median(tracer_overhead_));
    if (lossy_) return;

    const std::vector<double> facade = spans_.us("setint.intersect");
    const std::vector<double> vt = spans_.us("core.verification_tree");
    const std::vector<double> cert = spans_.us("eq.equality_test");
    std::vector<double> self;
    double parent_sum = 0;
    double child_sum = 0;
    for (const auto& [parent, children] : spans_.decomposition()) {
      self.push_back(parent - children);
      parent_sum += parent;
      child_sum += children;
    }
    set_metric(m, "multiparty.self_us", median(self));
    set_metric(m, "trace.decomposition_gap_pct",
               100.0 * ratio(parent_sum - child_sum, parent_sum));
    // The replay runs apart from the session it mirrors, so the sums
    // carry timing noise; a replay that costs clearly more than the
    // session means it does work the session does not.
    if (child_sum > kDecompositionSlack * parent_sum) {
      violation_ = "the replayed layers cost more than the session they decompose";
    }
    set_metric(m, "core.vt_us", median(vt));
    set_metric(m, "eq.certificate_us", median(cert));
    double cert_sum = 0;
    double facade_sum = 0;
    for (double x : cert) cert_sum += x;
    for (double x : facade) facade_sum += x;
    set_metric(m, "eq.certificate_share", ratio(cert_sum, facade_sum));
    measure_core_protocols(seed_, m);
  }

  std::vector<Pair> kernel_pairs() const override {
    return {pool_.begin(), pool_.begin() + 8};
  }

 private:
  IntersectOptions options(std::uint64_t session_seed) const {
    IntersectOptions opt;
    opt.universe = kUniverse;
    opt.seed = session_seed;
    if (lossy_) opt.retry.max_attempts = kLossyMaxAttempts;
    return opt;
  }

  std::optional<sim::FaultPlan> fault_plan(std::uint64_t session_seed) const {
    if (!lossy_) return std::nullopt;
    return sim::FaultPlan(sim::FaultSpec{
        .flip_per_bit = 1e-4, .seed = util::mix64(session_seed, 0xFA17)});
  }

  // Replays a clean first-attempt session as the calls the multiparty
  // session driver makes (VT, two append_set, the 2k-bit certificate),
  // each timed as a child span of the facade session; then runs the
  // session again with an obs::Tracer installed.
  void decompose(const Pair& p, const IntersectOptions& opt,
                 const IntersectResult& r, Sample& s) {
    const long parent = spans_.add("setint.intersect", -1, s.cpu_ns);
    if (!lossy_ && r.repetitions == 1 && r.verified) {
      const sim::SharedRandomness shared(opt.seed);
      sim::Channel channel;
      core::VerificationTreeParams params;
      params.rounds_r = opt.rounds_r;
      core::VerificationTreeDiag diag;
      const core::IntersectionOutput out =
          spans_.time("core.verification_tree", parent, [&] {
            return core::verification_tree_intersection(
                channel, shared, util::mix64(opt.seed, 0), kUniverse, p.s, p.t,
                params, &diag);
          });
      util::BitBuffer ca;
      util::BitBuffer cb;
      spans_.time("util.append_set", parent, [&] {
        util::append_set(ca, out.alice);
        util::append_set(cb, out.bob);
      });
      const std::size_t k = std::max<std::size_t>({p.s.size(), p.t.size(), 2});
      const bool certified = spans_.time("eq.equality_test", parent, [&] {
        return eq::equality_test(channel, shared,
                                 util::mix64(opt.seed, util::mix64(0xCE27, 0)),
                                 ca, cb, 2 * k);
      });
      if (!certified || channel.cost().bits_total != r.bits ||
          channel.cost().rounds != r.rounds) {
        violation_ = "the traced replay does not reproduce the session's bits and rounds";
      }
      s.bi_runs = diag.total_bi_runs;
      s.certificate_bits = ca.size_bits();
    }
    obs::Tracer tracer;
    IntersectOptions traced = opt;
    traced.tracer = &tracer;
    std::optional<sim::FaultPlan> plan = fault_plan(opt.seed);
    traced.fault_plan = plan ? &*plan : nullptr;
    const std::uint64_t t0 = thread_cpu_ns();
    const IntersectResult again = setint::intersect(p.s, p.t, traced);
    tracer_overhead_.push_back(
        ratio(static_cast<double>(thread_cpu_ns() - t0),
              static_cast<double>(s.cpu_ns)) -
        1.0);
    if (again.bits != r.bits || again.intersection != r.intersection) {
      violation_ = "installing a tracer changed the session's outcome";
    }
  }

  // Tolerated excess of replayed children over their parent session.
  static constexpr double kDecompositionSlack = 1.1;
  // At flip_per_bit = 1e-4 a k = 512 attempt survives with probability
  // about 1/7, so the default 40 attempts leave about 0.25% of sessions
  // degraded, a count that grows with the run's length. 200 attempts
  // leave about 1e-13 per session: no lossy session degrades.
  static constexpr std::uint64_t kLossyMaxAttempts = 200;

  const std::size_t k_;
  const bool lossy_;
  std::vector<Pair> pool_;
  // Per traced session: CPU with an obs::Tracer installed over CPU
  // without, minus one.
  std::vector<double> tracer_overhead_;
};

// Closed loop of run_batch calls at two worker threads, 2000 sessions per
// call with k log-uniform in 16..1024.
class BatchWorkload final : public Workload {
 public:
  using Workload::Workload;

  int threads() const override { return 2; }
  std::size_t counted() const override { return 1; }
  // Worker threads share the prime memo, so its hits and the allocations
  // of its inserts depend on interleaving.
  bool deterministic_work() const override { return false; }

  void setup() override {
    hashing::prime_cache_clear();
    util::Rng rng(util::mix64(seed_, 0xBA7C));
    pairs_.clear();
    batches_.assign(2, {});
    const double lo = std::log(16.0);
    const double hi = std::log(1024.0);
    for (std::size_t b = 0; b < batches_.size(); ++b) {
      for (std::size_t i = 0; i < kSessions; ++i) {
        const auto k = static_cast<std::size_t>(
            std::lround(std::exp(lo + (hi - lo) * rng.unit())));
        pairs_.push_back(make_pair(rng, k));
      }
    }
    for (std::size_t b = 0; b < batches_.size(); ++b) {
      for (std::size_t i = 0; i < kSessions; ++i) {
        const Pair& p = pairs_[b * kSessions + i];
        batches_[b].push_back({p.s, p.t});
      }
    }
    warm_up(
        [&](std::size_t i) {
          IntersectOptions opt;
          opt.universe = kUniverse;
          opt.seed = util::mix64(seed_, ~i);
          const std::span<const Instance> head(batches_[0].data(), 256);
          (void)setint::run_batch(opt, head, {.threads = threads()});
        },
        4);
  }

  Sample run(std::size_t i) override {
    const std::size_t b = i % batches_.size();
    IntersectOptions opt;
    opt.universe = kUniverse;
    opt.seed = util::mix64(seed_, i);
    Sample s;
    const Work w0 = Work::now();
    const std::uint64_t wall0 = wall_ns();
    const std::uint64_t cpu0 = process_cpu_ns();
    const BatchResult out =
        setint::run_batch(opt, batches_[b], {.threads = threads()});
    s.cpu_ns = process_cpu_ns() - cpu0;
    s.wall_ns = wall_ns() - wall0;
    s.work = Work::now() - w0;
    if (traced_) spans_.add("setint.run_batch", -1, s.cpu_ns);
    for (std::size_t j = 0; j < out.results.size(); ++j) {
      const IntersectResult& r = out.results[j];
      const Pair& p = pairs_[b * kSessions + j];
      s.sessions += 1;
      s.bits += r.bits;
      s.rounds += r.rounds;
      s.attempts += r.repetitions;
      s.elems += p.s.size() + p.t.size();
      s.messages += r.report.cost.messages;
      check_answer(r, p, s, violation_);
    }
    if (i == 0) {
      for (std::size_t j = 0; j < kReplayed; ++j) first_call_.push_back(out.results[j]);
    }
    return s;
  }

  // The batch determinism contract: session j of a call is reproducible
  // alone with setint::intersect under batch_session_seed.
  void finish(const std::vector<Sample>&) override {
    for (std::size_t j = 0; j < first_call_.size(); ++j) {
      IntersectOptions opt;
      opt.universe = kUniverse;
      opt.seed = setint::batch_session_seed(util::mix64(seed_, 0), j);
      const Pair& p = pairs_[j];
      const IntersectResult r = setint::intersect(p.s, p.t, opt);
      const IntersectResult& b = first_call_[j];
      if (r.bits != b.bits || r.rounds != b.rounds ||
          r.repetitions != b.repetitions || r.intersection != b.intersection) {
        violation_ = "a batch session does not reproduce alone";
      }
    }
  }

  void layers(const std::vector<Sample>& samples, Metrics& m) override {
    double cpu = 0;
    double wall = 0;
    for (const Sample& s : samples) {
      cpu += static_cast<double>(s.cpu_ns);
      wall += static_cast<double>(s.wall_ns);
    }
    set_metric(m, "runtime.parallel_efficiency", ratio(cpu, threads() * wall));
  }

  std::vector<Pair> kernel_pairs() const override {
    return {pairs_.begin(), pairs_.begin() + 8};
  }

 private:
  static constexpr std::size_t kSessions = 2000;
  static constexpr std::size_t kReplayed = 8;
  std::vector<Pair> pairs_;
  std::vector<std::vector<Instance>> batches_;
  std::vector<IntersectResult> first_call_;
};

// Runs the first `units` loop units in a forked copy of this process and
// returns their counter fingerprints. The copy starts from the same state
// the timed loop starts from, so its counters must equal the loop's.
std::optional<std::vector<std::uint64_t>> counters_in_child(Workload& w,
                                                            std::size_t units) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      std::vector<std::uint64_t> out;
      for (std::size_t i = 0; i < units; ++i) {
        const std::vector<std::uint64_t> f = fingerprint(w.run(i), true);
        out.insert(out.end(), f.begin(), f.end());
      }
      const char* data = reinterpret_cast<const char*>(out.data());
      std::size_t left = out.size() * sizeof(std::uint64_t);
      while (left > 0) {
        const ssize_t n = write(fds[1], data, left);
        if (n <= 0) {
          code = 3;
          break;
        }
        data += n;
        left -= static_cast<std::size_t>(n);
      }
    } catch (...) {
      code = 3;
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  char buf[4096];
  std::string bytes;
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    bytes.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  std::vector<std::uint64_t> out(bytes.size() / sizeof(std::uint64_t));
  std::memcpy(out.data(), bytes.data(), out.size() * sizeof(std::uint64_t));
  return out;
}

// Counter metrics over the counted prefix, so that two runs with one
// seed print identical values.
struct Counted {
  double units = 0;
  double sessions = 0;
  double exact = 0;
  double bits = 0;
  double rounds = 0;
  double attempts = 0;
  double elems = 0;
  double messages = 0;
  double faults = 0;
  double bi_runs = 0;
  double certificate_bits = 0;
  Work work;
};

Counted count_prefix(const std::vector<Sample>& samples, std::size_t units) {
  Counted c;
  for (std::size_t i = 0; i < std::min(units, samples.size()); ++i) {
    const Sample& s = samples[i];
    c.units += 1;
    c.sessions += static_cast<double>(s.sessions);
    c.exact += static_cast<double>(s.exact);
    c.bits += static_cast<double>(s.bits);
    c.rounds += static_cast<double>(s.rounds);
    c.attempts += static_cast<double>(s.attempts);
    c.elems += static_cast<double>(s.elems);
    c.messages += static_cast<double>(s.messages);
    c.faults += static_cast<double>(s.faults);
    c.bi_runs += static_cast<double>(s.bi_runs);
    c.certificate_bits += static_cast<double>(s.certificate_bits);
    c.work.allocs += s.work.allocs;
    c.work.alloc_bytes += s.work.alloc_bytes;
    c.work.prime_calls += s.work.prime_calls;
    c.work.prime_hits += s.work.prime_hits;
  }
  return c;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "session_bench: %s\nusage: session_bench --workload "
               "<certified_k4096|lossy_k512|batch_mixed> --seed "
               "<n> --seconds <s> --trace <0|1>\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    usage(flag + " needs a non-negative integer, got '" + text + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<int>(std::min<std::uint64_t>(parse_uint(flag, value), 3600));
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(parse_uint(flag, value));
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.seconds < 1 || (a.trace != 0 && a.trace != 1)) {
    usage("--workload, --seconds >= 1 and --trace 0|1 are required");
  }
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  const bool traced = a.trace == 1;
  if (a.workload == "certified_k4096") {
    return std::make_unique<FacadeWorkload>(a.seed, traced, 4096, false);
  }
  if (a.workload == "lossy_k512") {
    return std::make_unique<FacadeWorkload>(a.seed, traced, 512, true);
  }
  if (a.workload == "batch_mixed") {
    return std::make_unique<BatchWorkload>(a.seed, traced);
  }
  usage("unknown workload " + a.workload);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args);

  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const std::uint64_t t0 = wall_ns();
    w->setup();
    setup_s.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
  }

  // Fork a copy that runs the counted units before the parent does; the
  // batch workload's shared-memo counters are thread-order dependent and
  // are checked by its own serial replay instead.
  const std::size_t probe_units =
      w->deterministic_work() ? std::min<std::size_t>(w->counted(), 4) : 0;
  std::optional<std::vector<std::uint64_t>> probe;
  if (probe_units > 0) probe = counters_in_child(*w, probe_units);

  std::vector<Sample> samples;
  const std::uint64_t budget = static_cast<std::uint64_t>(args.seconds) * 1000000000u;
  const std::uint64_t loop0 = wall_ns();
  for (std::size_t i = 0;; ++i) {
    if (i >= w->min_units() && wall_ns() - loop0 >= budget) break;
    samples.push_back(w->run(i));
  }
  const double loop_wall_s = static_cast<double>(wall_ns() - loop0) / 1e9;
  w->finish(samples);

  std::string violation = w->violation();
  if (probe_units > 0) {
    std::vector<std::uint64_t> mine;
    for (std::size_t i = 0; i < probe_units; ++i) {
      const std::vector<std::uint64_t> f = fingerprint(samples[i], true);
      mine.insert(mine.end(), f.begin(), f.end());
    }
    if (!probe || *probe != mine) {
      violation = "counters differ between two runs from the same state";
    }
  }

  const Counted c = count_prefix(samples, w->counted());
  std::uint64_t attempted = 0;
  std::uint64_t exact = 0;
  std::vector<double> per_session_us;
  double cpu_ns = 0;
  double bits = 0;
  for (const Sample& s : samples) {
    attempted += s.sessions;
    exact += s.exact;
    per_session_us.push_back(s.cpu_us_per_session());
    cpu_ns += static_cast<double>(s.cpu_ns);
    bits += static_cast<double>(s.bits);
  }

  Metrics metrics;
  if (args.trace == 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"wire_bits_per_elem", ratio(c.bits, c.elems), "bits/elem"},
        {"rounds_per_session", ratio(c.rounds, c.sessions), "count"},
        {"attempts_per_session", ratio(c.attempts, c.sessions), "count"},
        {"allocs_per_session",
         ratio(static_cast<double>(c.work.allocs), c.sessions), "count"},
        {"exact_share", ratio(c.exact, c.sessions), "ratio"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
    };
  } else {
    metrics = layer_table();
    const double sessions = c.sessions;
    set_metric(metrics, "hashing.next_prime_calls",
               ratio(static_cast<double>(c.work.prime_calls), sessions));
    set_metric(metrics, "hashing.prime_memo_hit_ratio",
               ratio(static_cast<double>(c.work.prime_hits),
                     static_cast<double>(c.work.prime_calls)));
    set_metric(metrics, "setint.allocs_per_session",
               ratio(static_cast<double>(c.work.allocs), sessions));
    set_metric(metrics, "setint.alloc_bytes_per_session",
               ratio(static_cast<double>(c.work.alloc_bytes), sessions));
    set_metric(metrics, "sim.messages_per_session", ratio(c.messages, sessions));
    set_metric(metrics, "sim.faults_per_session", ratio(c.faults, sessions));
    // At most one replayed VT and certificate per unit.
    set_metric(metrics, "core.vt_bi_runs", ratio(c.bi_runs, c.units));
    set_metric(metrics, "eq.certificate_payload_bits",
               ratio(c.certificate_bits, c.units));
    double wall = 0;
    for (const Sample& s : samples) wall += static_cast<double>(s.wall_ns);
    // Session timings. On a host whose cores are shared they move by more
    // than any usable bound between runs, so they are reported here, not
    // gated as end-to-end metrics (perfbench/METRICS.md, Noise).
    set_metric(metrics, "setint.session_cpu_us_p50", quantile(per_session_us, 0.5));
    set_metric(metrics, "setint.session_cpu_us_p90", quantile(per_session_us, 0.9));
    set_metric(metrics, "setint.sessions_per_s",
               ratio(static_cast<double>(attempted), wall / 1e9));
    set_metric(metrics, "setint.cpu_ns_per_wire_bit", ratio(cpu_ns, bits));
    set_metric(metrics, "runtime.parallel_efficiency", ratio(cpu_ns, wall));
    // Wall time the traced loop spends beyond its timed units (replays,
    // the tracer rerun), relative to the units themselves.
    set_metric(metrics, "trace.overhead_pct",
               100.0 * (ratio(loop_wall_s * 1e9, wall) - 1.0));
    w->layers(samples, metrics);
    measure_kernels(w->kernel_pairs(), ratio(c.bits, c.messages), args.seed,
                    metrics);
    // Prime searches per session times the cost of one, over the session.
    set_metric(metrics, "hashing.prime_share_est",
               ratio(get_metric(metrics, "hashing.next_prime_calls") *
                         get_metric(metrics, "hashing.pairwise_sample_us"),
                     median(per_session_us)));
  }

  char nproc[32];
  std::snprintf(nproc, sizeof(nproc), "%u", std::thread::hardware_concurrency());
  std::string setups;
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    setups += (i > 0 ? ", " : "") + json_number(setup_s[i]);
  }
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"loop\": \"closed\", "
      "\"clients\": 1, \"threads\": %d, \"seed\": %llu, \"seconds\": %d, \"trace\": %d, "
      "\"nproc\": %s, \"build_type\": \"%s\", \"simd_tier\": \"%s\", "
      "\"units\": %zu, \"counted_units\": %zu, \"setup_s\": [%s]}}\n",
      args.workload.c_str(), w->threads(),
      static_cast<unsigned long long>(args.seed), args.seconds, args.trace,
      nproc, PERFBENCH_BUILD_TYPE, simd::tier_name(simd::active_tier()),
      samples.size(), std::min(w->counted(), samples.size()), setups.c_str());
  if (!violation.empty()) {
    std::fprintf(stderr, "session_bench: %s\n", violation.c_str());
  }
  print_result(violation.empty(), attempted, attempted - exact, metrics);
  return violation.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "session_bench: %s\n", e.what());
    return 1;
  }
}

// E-CPU: the hot-path compute-engine lane — CPU time, not communication.
//
// Every other experiment measures bits and rounds; this one measures the
// cost of *producing* them: ns/element for the hashing substrate (batched
// Barrett/Montgomery evaluation vs the plain-division formula) and
// sessions/sec for the core protocols end-to-end.
//
// Safety gate: the engine must change how bits are computed, never which
// bits are sent. Section E-CPU.0 re-runs the golden reference instance
// (fixed seeds, independent of --seed) and compares transcript digests and
// bit/round counts against the constants pinned in tests/golden_test.cc;
// any divergence makes the binary exit non-zero. Microbench sections
// additionally pin checksum equality between the engine and its
// plain-division baseline.
//
// Timing cells live in columns whose names contain "wall_ms" so the bench
// determinism filter strips them (the bench_util.h contract); everything
// else — counts, checksums, digests — is deterministic and compared.
//
// Kernel lane (E-CPU.5, E-CPU.7): the adaptive intersection oracle
// engine-vs-baseline (checksum-gated, timing informational), plus a
// differential gate that forces each dispatch tier (scalar, clmul)
// against bit-at-a-time and element-wise references. The record's
// environment.cpu block says which tier the timing columns were measured
// on (schema v3); records from different tiers are timing-incomparable
// (tools/bench_compare enforces this).
#include <algorithm>
#include <ctime>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/bucket_eq.h"
#include "core/one_round_hash.h"
#include "core/verification_tree.h"
#include "obs/envelope.h"
#include "obs/recorder.h"
#include "obs/tracer.h"
#include "hashing/fks.h"
#include "hashing/modmath.h"
#include "hashing/pairwise.h"
#include "hashing/toeplitz_hash.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace setint {
namespace {

// Process CPU time: immune to wall-clock noise from other containers on
// the host, which is what a 1-core CI box sees.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string fmt_hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

// ---------------------------------------------------------------------------
// E-CPU.0: bit-identity gate against the golden reference instance.
// ---------------------------------------------------------------------------

struct GoldenPin {
  const char* protocol;
  std::uint64_t bits;
  std::uint64_t rounds;  // 0 = not pinned
  std::uint64_t digest;
};

// Constants mirrored from tests/golden_test.cc — update both together,
// and only for a deliberate protocol change.
constexpr GoldenPin kPins[] = {
    {"verification_tree", 18161, 20, 0x88aaea5ee4eb3737ull},
    {"one_round_hash", 27686, 0, 0x9083d7c54c7c9afeull},
    {"bucket_eq", 9023, 0, 0xe1cdad82c6c8c0b0ull},
};

bool run_identity_gate(bench::Reporter& rep, obs::EnvelopeAuditor& auditor) {
  auto& t = rep.table("E-CPU.0: transcript bit-identity gate (golden reference)",
                      {"protocol", "bits", "rounds", "digest", "ok"});
  bool all_ok = true;
  for (const GoldenPin& pin : kPins) {
    // The reference instance is pinned independently of --seed.
    util::Rng wrng(12345);
    const util::SetPair pair = util::random_set_pair(wrng, 1u << 24, 512, 256);
    sim::SharedRandomness shared{777};
    sim::Channel ch(/*record_transcript=*/true);
    const std::string name = pin.protocol;
    if (name == "verification_tree") {
      core::verification_tree_intersection(ch, shared, 42, 1u << 24, pair.s,
                                           pair.t, {});
    } else if (name == "one_round_hash") {
      core::one_round_hash(ch, shared, 42, 1u << 24, pair.s, pair.t);
    } else {
      core::bucket_eq_intersection(ch, shared, 42, 1u << 24, pair.s, pair.t);
    }
    const std::uint64_t bits = ch.cost().bits_total;
    const std::uint64_t rounds = ch.cost().rounds;
    const std::uint64_t digest = ch.transcript()->digest();
    const bool ok = bits == pin.bits && digest == pin.digest &&
                    (pin.rounds == 0 || rounds == pin.rounds);
    all_ok = all_ok && ok;
    auditor.add(name, {512, 0, bits, rounds, 1});
    t.add_row({name, bench::fmt_u64(bits), bench::fmt_u64(rounds),
               fmt_hex(digest), ok ? "yes" : "NO"});
  }
  t.print();
  return all_ok;
}

// ---------------------------------------------------------------------------
// E-CPU.1: substrate microbenchmarks — engine vs reference baseline.
// ---------------------------------------------------------------------------

// Pre-change reference evaluation: the textbook formula with two hardware
// divisions per element, exactly what PairwiseHash::operator() computed
// before the Barrett/Montgomery engine.
std::uint64_t pairwise_reference(const hashing::PairwiseHash& h,
                                 std::uint64_t x) {
  constexpr std::uint64_t p = hashing::PairwiseHash::kPrime;
  const std::uint64_t ax = hashing::mulmod(h.multiplier(), x % p, p);
  return ((ax + h.offset()) % p) % h.range();
}

// Bit-at-a-time Hankel reference for hashing::toeplitz_hash: z is the
// 64-bit length word followed by the data bits, r the stream's bits in
// draw order, and hash bit j is the parity of z AND r[j, j + |z|). Packs
// the hash into words laid out like the kernel's output.
std::vector<std::uint64_t> toeplitz_hash_reference(
    const util::BitBuffer& data, std::size_t bits, util::Rng stream) {
  std::vector<std::uint8_t> z;
  for (unsigned c = 0; c < 64; ++c) z.push_back((data.size_bits() >> c) & 1);
  for (std::size_t i = 0; i < data.size_bits(); ++i) z.push_back(data.bit(i));
  std::vector<std::uint8_t> r;
  while (r.size() < z.size() + bits) {
    const std::uint64_t w = stream.next();
    for (unsigned c = 0; c < 64; ++c) r.push_back((w >> c) & 1);
  }
  std::vector<std::uint64_t> out(hashing::toeplitz_hash_words(bits));
  for (std::size_t j = 0; j < bits; ++j) {
    std::uint8_t parity = 0;
    for (std::size_t i = 0; i < z.size(); ++i) parity ^= z[i] & r[j + i];
    out[j / 64] |= static_cast<std::uint64_t>(parity) << (j % 64);
  }
  return out;
}

struct MicroResult {
  std::uint64_t checksum_baseline = 0;
  std::uint64_t checksum_engine = 0;
  double baseline_ms = 0;
  double engine_ms = 0;
};

void add_micro_row(bench::Table& t, const std::string& op, std::size_t n,
                   int reps, const MicroResult& r, bool& all_ok) {
  const bool match = r.checksum_baseline == r.checksum_engine;
  all_ok = all_ok && match;
  const double total = static_cast<double>(n) * reps;
  t.add_row({op, bench::fmt_u64(n), bench::fmt_u64(static_cast<std::uint64_t>(reps)),
             fmt_hex(r.checksum_engine), match ? "yes" : "NO",
             bench::fmt_double(r.baseline_ms * 1e6 / total, 2),
             bench::fmt_double(r.engine_ms * 1e6 / total, 2),
             bench::fmt_double(r.baseline_ms / std::max(1e-12, r.engine_ms), 2)});
}

bool run_substrate_micro(bench::Reporter& rep) {
  const std::size_t n = rep.smoke() ? (1u << 13) : (1u << 17);
  const int reps = rep.smoke() ? 3 : 10;
  bool all_ok = true;

  auto& t = rep.table(
      "E-CPU.1: hashing substrate, engine vs reference baseline",
      {"op", "n", "reps", "checksum", "identical",
       "baseline ns_per_elem (wall_ms)", "engine ns_per_elem (wall_ms)",
       "speedup (wall_ms ratio)"});

  util::Rng rng(rep.seed_for(0xC0));
  std::vector<std::uint64_t> xs(n);
  for (auto& x : xs) x = rng.below(std::uint64_t{1} << 24);
  std::vector<std::uint64_t> out(n);

  {  // Pairwise Carter-Wegman evaluation.
    const auto h =
        hashing::PairwiseHash::sample(rng, std::uint64_t{1} << 24, 512 * 512);
    MicroResult r;
    double t0 = cpu_seconds();
    for (int rep_i = 0; rep_i < reps; ++rep_i) {
      std::uint64_t acc = 0;
      for (std::uint64_t x : xs) acc += pairwise_reference(h, x);
      r.checksum_baseline = acc;
    }
    r.baseline_ms = (cpu_seconds() - t0) * 1e3;
    t0 = cpu_seconds();
    for (int rep_i = 0; rep_i < reps; ++rep_i) {
      h.hash_many(xs, out);
      std::uint64_t acc = 0;
      for (std::uint64_t v : out) acc += v;
      r.checksum_engine = acc;
    }
    r.engine_ms = (cpu_seconds() - t0) * 1e3;
    add_micro_row(t, "pairwise_hash", n, reps, r, all_ok);
  }

  {  // FKS mod-prime compression.
    const auto fks =
        hashing::FksCompressor::sample(rng, std::uint64_t{1} << 24, 1024);
    const std::uint64_t q = fks.range();
    MicroResult r;
    double t0 = cpu_seconds();
    for (int rep_i = 0; rep_i < reps; ++rep_i) {
      std::uint64_t acc = 0;
      for (std::uint64_t x : xs) acc += x % q;
      r.checksum_baseline = acc;
    }
    r.baseline_ms = (cpu_seconds() - t0) * 1e3;
    t0 = cpu_seconds();
    for (int rep_i = 0; rep_i < reps; ++rep_i) {
      fks.hash_many(xs, out);
      std::uint64_t acc = 0;
      for (std::uint64_t v : out) acc += v;
      r.checksum_engine = acc;
    }
    r.engine_ms = (cpu_seconds() - t0) * 1e3;
    add_micro_row(t, "fks_mod_prime", n, reps, r, all_ok);
  }

  // Toeplitz GF(2) hashing: 16-bit hashes of single-word payloads (the
  // bucket-EQ tag) and one 2k-bit hash of a certificate-sized payload
  // (the set-intersection certificate; 82618 bits at k = 4096, scaled
  // linearly in k). Each shape times three evaluators on the same hashes:
  // the bit-at-a-time reference (the two small shapes only), the scalar
  // word loop (forced kScalar) and the dispatched product, which runs
  // carry-less multiplies on PCLMULQDQ parts. Rows "<shape>" compare the
  // word loop against the reference, rows "<shape>_clmul" (appended
  // after them) the dispatched product against the word loop. Under
  // SETINT_FORCE_SCALAR the dispatched product is the word loop, so the
  // checksum cells do not depend on the tier.
  struct ToeplitzCase {
    const char* op;
    std::size_t payload_bits;
    std::size_t hash_bits;
    std::size_t hashes;
    bool reference;  // bit-at-a-time reference affordable
    bool in_smoke;
  };
  const ToeplitzCase toeplitz_cases[] = {
      {"toeplitz_hash_16b", 24, 16, rep.smoke() ? (1u << 10) : (1u << 14),
       true, true},
      {"toeplitz_hash_cert_8192b", 82618, 8192, 1, true, true},  // k = 4096
      {"toeplitz_hash_cert_32768b", 82618 * 4, 32768, 1, false,
       false},  // k = 16384
      {"toeplitz_hash_cert_131072b", 82618 * 16, 131072, 1, false,
       false},  // k = 65536
  };
  struct ClmulRow {
    std::string op;
    std::size_t hashes;
    MicroResult result;
  };
  std::vector<ClmulRow> clmul_rows;
  util::ScratchArena arena;
  for (const ToeplitzCase& c : toeplitz_cases) {
    if (rep.smoke() && !c.in_smoke) continue;
    util::BitBuffer payload;
    for (std::size_t i = 0; i < c.payload_bits; ++i) {
      payload.append_bit(rng.coin());
    }
    const util::Rng stream(rep.seed_for(0xAA));
    std::vector<std::uint64_t> hash(hashing::toeplitz_hash_words(c.hash_bits));
    // Checksum of `reps` passes over the shape's hashes, and their CPU ms.
    const auto timed = [&](auto&& hash_fn) {
      std::uint64_t acc = 0;
      const double t0 = cpu_seconds();
      for (int rep_i = 0; rep_i < reps; ++rep_i) {
        acc = 0;
        for (std::size_t i = 0; i < c.hashes; ++i) {
          for (std::uint64_t w : hash_fn(stream.substream(i))) {
            acc = util::mix64(acc, w);
          }
        }
      }
      return std::pair{acc, (cpu_seconds() - t0) * 1e3};
    };
    const auto dispatched = [&](const util::Rng& s) {
      hashing::toeplitz_hash(payload, c.hash_bits, s, arena, hash);
      return std::span<const std::uint64_t>(hash);
    };
    MicroResult word_loop;  // the word loop as the engine
    {
      const simd::ScopedTierOverride scalar(simd::Tier::kScalar);
      std::tie(word_loop.checksum_engine, word_loop.engine_ms) =
          timed(dispatched);
    }
    if (c.reference) {
      std::tie(word_loop.checksum_baseline, word_loop.baseline_ms) =
          timed([&](const util::Rng& s) {
            return toeplitz_hash_reference(payload, c.hash_bits, s);
          });
      add_micro_row(t, c.op, c.hashes, reps, word_loop, all_ok);
    }
    MicroResult clmul;  // the word loop as the baseline
    clmul.checksum_baseline = word_loop.checksum_engine;
    clmul.baseline_ms = word_loop.engine_ms;
    std::tie(clmul.checksum_engine, clmul.engine_ms) = timed(dispatched);
    clmul_rows.push_back({std::string(c.op) + "_clmul", c.hashes, clmul});
  }
  for (const ClmulRow& row : clmul_rows) {
    add_micro_row(t, row.op, row.hashes, reps, row.result, all_ok);
  }

  t.print();
  return all_ok;
}

// ---------------------------------------------------------------------------
// E-CPU.2: end-to-end protocol throughput (sessions/sec, ns/element).
// ---------------------------------------------------------------------------

void run_protocol_throughput(bench::Reporter& rep,
                             obs::EnvelopeAuditor& auditor) {
  auto& t = rep.table(
      "E-CPU.2: protocol session throughput (universe 2^24, |S|=|T|=k)",
      {"protocol", "k", "trials", "bits_total", "rounds",
       "sessions_per_sec (wall_ms)", "us_per_session (wall_ms)",
       "ns_per_elem (wall_ms)"});
  const std::size_t k = rep.smoke() ? 128 : 512;
  const int trials = rep.smoke() ? 20 : 200;
  const std::uint64_t universe = std::uint64_t{1} << 24;

  struct Proto {
    const char* name;
    int id;
  };
  const Proto protos[] = {
      {"verification_tree[r=auto]", 0}, {"one_round_hash", 1}, {"bucket_eq", 2}};
  for (const Proto& proto : protos) {
    util::Rng wrng(rep.seed_for(0x7E, proto.id));
    const util::SetPair pair = util::random_set_pair(wrng, universe, k, k / 2);
    std::uint64_t bits = 0, rounds = 0;
    const double t0 = cpu_seconds();
    for (int trial = 0; trial < trials; ++trial) {
      sim::Channel ch;
      sim::SharedRandomness shared{rep.seed_for(0x5E, proto.id)};
      switch (proto.id) {
        case 0:
          core::verification_tree_intersection(ch, shared, trial, universe,
                                               pair.s, pair.t, {});
          break;
        case 1:
          core::one_round_hash(ch, shared, trial, universe, pair.s, pair.t);
          break;
        default:
          core::bucket_eq_intersection(ch, shared, trial, universe, pair.s,
                                       pair.t);
          break;
      }
      if (trial == 0) {
        bits = ch.cost().bits_total;
        rounds = ch.cost().rounds;
        static constexpr const char* kProtocolNames[] = {
            "verification_tree", "one_round_hash", "bucket_eq"};
        auditor.add(kProtocolNames[proto.id], {k, 0, bits, rounds, 1});
      }
    }
    const double secs = cpu_seconds() - t0;
    const double per_session = secs / trials;
    t.add_row({proto.name, bench::fmt_u64(k),
               bench::fmt_u64(static_cast<std::uint64_t>(trials)),
               bench::fmt_u64(bits), bench::fmt_u64(rounds),
               bench::fmt_double(1.0 / std::max(1e-12, per_session), 1),
               bench::fmt_double(per_session * 1e6, 1),
               bench::fmt_double(per_session * 1e9 /
                                     static_cast<double>(2 * k), 1)});
  }
  t.print();
}

// ---------------------------------------------------------------------------
// E-CPU.3: telemetry overhead — the recorder/tracer hooks must not tax the
// un-instrumented hot path.
// ---------------------------------------------------------------------------

// Runs the same verification-tree workload with telemetry off, with a
// flight recorder attached, and with tracer + recorder; reports median-of-3
// CPU time per config. The bits checksum must be identical across configs
// (telemetry observes, never alters) — that part is deterministic and
// always gates. The timing ratio only gates when --gate-overhead=<pct> is
// given: clocks stay out of default CI verdicts, per the repo's
// determinism policy.
bool run_telemetry_overhead(bench::Reporter& rep) {
  auto& t = rep.table(
      "E-CPU.3: telemetry overhead (verification_tree, median of 3 passes)",
      {"config", "trials", "bits_checksum", "identical",
       "us_per_session (wall_ms)", "overhead_pct (wall_ms)"});
  const std::size_t k = rep.smoke() ? 128 : 512;
  const int trials = rep.smoke() ? 10 : 50;
  const std::uint64_t universe = std::uint64_t{1} << 24;
  util::Rng wrng(rep.seed_for(0x0B5));
  const util::SetPair pair = util::random_set_pair(wrng, universe, k, k / 2);

  struct Config {
    const char* name;
    bool tracer;
    bool recorder;
  };
  constexpr Config kConfigs[] = {
      {"off", false, false},
      {"recorder", false, true},
      {"tracer+recorder", true, true},
  };
  double off_us = 0.0;
  double recorder_overhead_pct = 0.0;
  std::uint64_t off_checksum = 0;
  bool identical = true;
  for (const Config& cfg : kConfigs) {
    std::uint64_t checksum = 0;
    double times[3];
    for (int pass = 0; pass < 3; ++pass) {
      checksum = 0;
      const double t0 = cpu_seconds();
      for (int trial = 0; trial < trials; ++trial) {
        std::optional<obs::Tracer> tracer;
        std::optional<obs::FlightRecorder> recorder;
        sim::Channel ch;
        if (cfg.tracer) {
          tracer.emplace();
          ch.set_tracer(&*tracer);
        }
        if (cfg.recorder) {
          recorder.emplace();
          ch.set_recorder(&*recorder);
        }
        sim::SharedRandomness shared{rep.seed_for(0x0B6)};
        core::verification_tree_intersection(ch, shared, trial, universe,
                                             pair.s, pair.t, {});
        checksum += ch.cost().bits_total;
      }
      times[pass] = cpu_seconds() - t0;
    }
    std::sort(times, times + 3);
    const double us_per_session = times[1] * 1e6 / trials;
    if (&cfg == &kConfigs[0]) {
      off_us = us_per_session;
      off_checksum = checksum;
    }
    const bool match = checksum == off_checksum;
    identical = identical && match;
    const double overhead_pct =
        off_us > 0.0 ? (us_per_session / off_us - 1.0) * 100.0 : 0.0;
    if (cfg.recorder && !cfg.tracer) recorder_overhead_pct = overhead_pct;
    t.add_row({cfg.name, bench::fmt_u64(static_cast<std::uint64_t>(trials)),
               bench::fmt_u64(checksum), match ? "yes" : "NO",
               bench::fmt_double(us_per_session, 1),
               bench::fmt_double(overhead_pct, 1)});
  }
  t.print();

  bool ok = identical;
  if (!identical) {
    std::fprintf(stderr,
                 "[exp_cpu] FAIL: telemetry changed the bits a run sends\n");
  }
  const double gate = rep.options().gate_overhead_pct;
  if (gate >= 0.0) {
    const bool within = recorder_overhead_pct <= gate;
    std::printf("\nOverhead gate: recorder path %+.1f%% vs off (cap %.1f%%): %s\n",
                recorder_overhead_pct, gate, within ? "PASS" : "FAIL");
    ok = ok && within;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// E-CPU.5: adaptive intersection oracle — engine vs std::set_intersection.
// ---------------------------------------------------------------------------

// Order-sensitive checksum: catches wrong elements, wrong counts, and
// wrong ordering alike.
std::uint64_t intersect_checksum(std::span<const std::uint64_t> out,
                                 std::size_t n) {
  std::uint64_t acc = static_cast<std::uint64_t>(n) * 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < n; ++i) {
    acc = (acc ^ out[i]) * 0x2545f4914f6cdd1dull;
  }
  return acc;
}

bool run_intersect_oracle(bench::Reporter& rep) {
  auto& t = rep.table(
      "E-CPU.5: adaptive intersection oracle vs std::set_intersection",
      {"shape", "na", "nb", "algo", "out", "checksum", "identical",
       "baseline ns_per_elem (wall_ms)", "engine ns_per_elem (wall_ms)",
       "speedup (wall_ms ratio)"});
  bool all_ok = true;

  // Shapes on both sides of the crossover: balanced and tiny -> kMerge,
  // ratio >= kGallopRatio -> kGallop.
  struct Shape {
    const char* name;
    std::size_t na;
    std::size_t nb;
  };
  const unsigned shrink = rep.smoke() ? 3 : 0;  // smoke: sizes / 8
  const Shape shapes[] = {
      {"balanced_4k", 4096u >> shrink, 4096u >> shrink},
      {"balanced_64k", 65536u >> shrink, 65536u >> shrink},
      {"skewed_64x", 1024u >> shrink, 65536u >> shrink},
      {"skewed_2048x", 64, 131072u >> shrink},
      {"tiny_small", 8, 64},
  };
  util::Rng rng(rep.seed_for(0xC5));
  for (const Shape& sh : shapes) {
    // A universe ~4x the large side gives a dense instance with a real
    // intersection instead of two nearly-disjoint sparse sets.
    const std::uint64_t universe = static_cast<std::uint64_t>(sh.nb) * 4;
    const util::Set a = util::random_set(rng, universe, sh.na);
    const util::Set b = util::random_set(rng, universe, sh.nb);
    std::vector<std::uint64_t> out(std::min(sh.na, sh.nb) +
                                   simd::kIntersectPadding);
    const int reps = static_cast<int>(
        std::max<std::size_t>(1, (rep.smoke() ? (1u << 16) : (1u << 22)) /
                                     (sh.na + sh.nb)));

    std::uint64_t baseline_sum = 0;
    double t0 = cpu_seconds();
    for (int i = 0; i < reps; ++i) {
      auto end = std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                                       out.begin());
      baseline_sum = intersect_checksum(
          out, static_cast<std::size_t>(end - out.begin()));
    }
    const double baseline_ms = (cpu_seconds() - t0) * 1e3;

    std::uint64_t engine_sum = 0;
    std::size_t n_out = 0;
    t0 = cpu_seconds();
    for (int i = 0; i < reps; ++i) {
      n_out = simd::intersect_sorted(a, b, out);
      engine_sum = intersect_checksum(out, n_out);
    }
    const double engine_ms = (cpu_seconds() - t0) * 1e3;

    const bool match = baseline_sum == engine_sum;
    all_ok = all_ok && match;
    const double total =
        static_cast<double>(sh.na + sh.nb) * reps;
    t.add_row({sh.name, bench::fmt_u64(sh.na), bench::fmt_u64(sh.nb),
               simd::intersect_algo_name(simd::plan_intersect(sh.na, sh.nb)),
               bench::fmt_u64(n_out),
               fmt_hex(engine_sum), match ? "yes" : "NO",
               bench::fmt_double(baseline_ms * 1e6 / total, 2),
               bench::fmt_double(engine_ms * 1e6 / total, 2),
               bench::fmt_double(baseline_ms / std::max(1e-12, engine_ms), 2)});
  }
  t.print();
  return all_ok;
}

// ---------------------------------------------------------------------------
// E-CPU.7: scalar-vs-clmul differential gate. Forces each dispatch tier
// the hardware supports and checks batched hashing against element-wise
// evaluation and the Toeplitz product against its bit-at-a-time
// reference over a randomized battery; any mismatch fails the binary. No
// timing columns — this section exists purely so a silent divergence
// between tiers cannot survive a bench run even if the unit suite was
// skipped.
// ---------------------------------------------------------------------------

bool run_simd_differential_gate(bench::Reporter& rep) {
  auto& t = rep.table(
      "E-CPU.7: scalar-vs-SIMD differential gate (forced tiers)",
      {"tier", "hash_cases", "identical", "toeplitz_cases"});
  bool all_ok = true;
  const int trials = rep.smoke() ? 12 : 60;
  const std::uint64_t universe = std::uint64_t{1} << 24;

  for (const simd::Tier tier : {simd::Tier::kScalar, simd::Tier::kClmul}) {
    if (tier > simd::detected_tier()) continue;
    const simd::ScopedTierOverride forced(tier);
    std::uint64_t hash_cases = 0, toeplitz_cases = 0;
    bool tier_ok = true;
    util::Rng rng(rep.seed_for(0xC7));  // same battery for every tier

    // Batched hashing vs element-wise.
    {
      std::vector<std::uint64_t> xs(1u << 10), out(1u << 10);
      for (auto& x : xs) x = rng.below(universe);
      const auto h =
          hashing::PairwiseHash::sample(rng, universe, 512 * 512);
      h.hash_many(xs, out);
      for (std::size_t i = 0; i < xs.size(); ++i) {
        tier_ok = tier_ok && out[i] == h(xs[i]);
        ++hash_cases;
      }
      const auto fks = hashing::FksCompressor::sample(rng, universe, 1024);
      fks.hash_many(xs, out);
      for (std::size_t i = 0; i < xs.size(); ++i) {
        tier_ok = tier_ok && out[i] == fks(xs[i]);
        ++hash_cases;
      }
    }

    // Toeplitz hashing vs the bit-at-a-time reference, on random lengths
    // and widths across word boundaries.
    util::ScratchArena arena;
    for (int trial = 0; trial < trials; ++trial) {
      util::BitBuffer data;
      const std::size_t nbits = rng.below(3000);
      for (std::size_t i = 0; i < nbits; ++i) data.append_bit(rng.coin());
      const std::size_t bits = 1 + rng.below(3000);
      const util::Rng stream = rng.substream(trial);
      std::vector<std::uint64_t> got(hashing::toeplitz_hash_words(bits));
      hashing::toeplitz_hash(data, bits, stream, arena, got);
      tier_ok =
          tier_ok && got == toeplitz_hash_reference(data, bits, stream);
      ++toeplitz_cases;
    }

    all_ok = all_ok && tier_ok;
    t.add_row({simd::tier_name(tier), bench::fmt_u64(hash_cases),
               tier_ok ? "yes" : "NO", bench::fmt_u64(toeplitz_cases)});
  }
  t.print();

  obs::Json note = obs::Json::object();
  note["detected_tier"] = simd::tier_name(simd::detected_tier());
  note["dispatch_tier"] = simd::tier_name(simd::active_tier());
  note["gallop_ratio"] = std::uint64_t{simd::kGallopRatio};
  rep.note("simd", std::move(note));
  return all_ok;
}

// Envelope audit table shared by main (the auditor collects samples from
// E-CPU.0 and E-CPU.2).
bool report_envelope(bench::Reporter& rep,
                     const obs::EnvelopeAuditor& auditor) {
  auto& t = rep.table("E-CPU.4: envelope audit over measured protocol runs",
                      {"protocol", "samples", "fitted c", "c bound", "slack",
                       "rounds violations", "within"});
  for (const obs::EnvelopeAudit& a : auditor.audit()) {
    t.add_row({a.protocol, bench::fmt_u64(a.samples),
               bench::fmt_double(a.fitted_c), bench::fmt_double(a.c_bound),
               bench::fmt_double(a.slack), bench::fmt_u64(a.rounds_violations),
               a.within() ? "YES" : "NO"});
  }
  t.print();
  rep.note("envelope_audit", auditor.ToJson());
  const bool ok = auditor.all_within();
  std::printf("\nEnvelope audit: %s\n", ok ? "ALL WITHIN" : "VIOLATED");
  return ok;
}

}  // namespace
}  // namespace setint

int main(int argc, char** argv) {
  using namespace setint;
  auto rep = bench::Reporter::FromArgs("cpu", argc, argv);
  obs::EnvelopeAuditor auditor;
  auditor.expect("verification_tree");
  auditor.expect("one_round_hash");
  auditor.expect("bucket_eq");
  bool ok = run_identity_gate(rep, auditor);
  ok = run_substrate_micro(rep) && ok;
  run_protocol_throughput(rep, auditor);
  ok = run_telemetry_overhead(rep) && ok;
  ok = report_envelope(rep, auditor) && ok;
  ok = run_intersect_oracle(rep) && ok;
  ok = run_simd_differential_gate(rep) && ok;
  if (!ok) {
    std::fprintf(stderr,
                 "[exp_cpu] FAIL: engine diverged from the golden transcript, "
                 "a baseline checksum, an envelope, or the overhead gate\n");
  }
  return rep.finish(ok ? 0 : 1);
}

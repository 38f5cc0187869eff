// M1 — google-benchmark micro-benchmarks for the substrates: bit I/O,
// gamma coding, hashing (pairwise, Toeplitz, FKS), prime sampling, and
// end-to-end protocol wall-clock.
#include <benchmark/benchmark.h>

#include "core/verification_tree.h"
#include "hashing/fks.h"
#include "hashing/pairwise.h"
#include "hashing/primes.h"
#include "hashing/toeplitz_hash.h"
#include "obs/tracer.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "util/arena.h"
#include "util/bitio.h"
#include "util/rng.h"
#include "util/set_util.h"

namespace {

using namespace setint;

void BM_BitBufferAppendBits(benchmark::State& state) {
  for (auto _ : state) {
    util::BitBuffer b;
    for (int i = 0; i < 1000; ++i) {
      b.append_bits(static_cast<std::uint64_t>(i) & 0x1ffff, 17);
    }
    benchmark::DoNotOptimize(b.size_bits());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_BitBufferAppendBits);

void BM_GammaEncodeDecode(benchmark::State& state) {
  util::Rng rng(1);
  std::vector<std::uint64_t> values(1000);
  for (auto& v : values) v = rng.next() >> 40;
  for (auto _ : state) {
    util::BitBuffer b;
    for (std::uint64_t v : values) b.append_gamma64(v);
    util::BitReader r(b);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < values.size(); ++i) sum += r.read_gamma64();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_GammaEncodeDecode);

void BM_PairwiseHashEval(benchmark::State& state) {
  util::Rng rng(2);
  const auto h = hashing::PairwiseHash::sample(rng, std::uint64_t{1} << 40,
                                               1u << 20);
  std::uint64_t x = 12345;
  for (auto _ : state) {
    x = h(x) + 1;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_PairwiseHashEval);

void BM_ToeplitzHash(benchmark::State& state) {
  util::Rng rng(3);
  util::BitBuffer data;
  for (int i = 0; i < state.range(0); ++i) data.append_bit(i & 1);
  util::ScratchArena arena;
  std::uint64_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hashing::toeplitz_hash64(data, 16, rng.substream(n++), arena));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) / 8);
}
BENCHMARK(BM_ToeplitzHash)->Arg(64)->Arg(1024)->Arg(16384);

void BM_RandomPrime(benchmark::State& state) {
  util::Rng rng(4);
  const std::uint64_t lo = std::uint64_t{1}
                           << static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hashing::random_prime_in(rng, lo, 2 * lo));
  }
}
BENCHMARK(BM_RandomPrime)->Arg(20)->Arg(40)->Arg(60);

void BM_FksSample(benchmark::State& state) {
  util::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hashing::FksCompressor::sample(rng, std::uint64_t{1} << 40, 1024));
  }
}
BENCHMARK(BM_FksSample);

void BM_SetEncode(benchmark::State& state) {
  util::Rng rng(6);
  const util::Set s = util::random_set(
      rng, std::uint64_t{1} << 30, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    util::BitBuffer b;
    util::append_set(b, s);
    benchmark::DoNotOptimize(b.size_bits());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SetEncode)->Arg(256)->Arg(4096);

void BM_VerificationTreeEndToEnd(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  util::Rng wrng(7);
  const util::SetPair p =
      util::random_set_pair(wrng, std::uint64_t{1} << 32, k, k / 2);
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    sim::SharedRandomness shared(nonce);
    sim::Channel ch;
    const auto out = core::verification_tree_intersection(
        ch, shared, nonce++, std::uint64_t{1} << 32, p.s, p.t, {});
    benchmark::DoNotOptimize(out.alice.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(k));
}
BENCHMARK(BM_VerificationTreeEndToEnd)->Arg(1024)->Arg(4096)->Arg(16384);

// Same protocol with a live tracer: the delta against the benchmark above
// is the observability overhead (acceptance target: the *untraced* run is
// within 3% of the pre-obs baseline; the traced run may pay for its span
// bookkeeping).
void BM_VerificationTreeEndToEndTraced(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  util::Rng wrng(7);
  const util::SetPair p =
      util::random_set_pair(wrng, std::uint64_t{1} << 32, k, k / 2);
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    obs::Tracer tracer;
    sim::SharedRandomness shared(nonce);
    sim::Channel ch;
    ch.set_tracer(&tracer);
    const auto out = core::verification_tree_intersection(
        ch, shared, nonce++, std::uint64_t{1} << 32, p.s, p.t, {});
    benchmark::DoNotOptimize(out.alice.size());
    benchmark::DoNotOptimize(tracer.total_bits());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(k));
}
BENCHMARK(BM_VerificationTreeEndToEndTraced)->Arg(1024)->Arg(4096)->Arg(16384);

}  // namespace

BENCHMARK_MAIN();

#!/usr/bin/env bash
# Single-entry CI gate: everything a green checkmark means, in order.
#
#   1. tier-1 build + full ctest suite (RelWithDebInfo, build/)
#   2. the robustness slice by label (fault injection, Byzantine adversary,
#      fuzz smoke) — redundant with (1) but printed separately so a
#      robustness regression is named, not buried
#   3. the observability slice by label (flight recorder, HDR histograms,
#      conformance envelopes, bench_compare smoke)
#   4. the chaos slice by label (crash/restart + partition recovery,
#      checkpoint/resume transcript pins, exp_chaos safety gates) plus an
#      incident-replay round-trip through the tools/replay CLI, and the
#      overload slice by label (budgets, breakers, retry pool, admission,
#      degradation ladder, exp_overload gates, bench_compare identity on
#      the committed BENCH_overload.json), and the sansio slice by label
#      (step-by-step replay, the failed-session path, the scheduler-vs-
#      blocking digest differential, exp_service gates, bench_compare
#      identity on the committed BENCH_service.json)
#   4b. the simd slice by label (the scalar and clmul Toeplitz products
#      against a bit-at-a-time reference, merge and gallop intersect
#      against std::set_intersection, golden + digest pins), run twice:
#      with native dispatch and under SETINT_FORCE_SCALAR=1
#   5. a longer seeded fuzz run than the in-suite smoke test
#   6. every bench binary end-to-end at smoke size (each one gates its own
#      safety/acceptance claims via its exit code)
#   7. the perf-smoke lane: exp_cpu --smoke, gating ONLY on the
#      golden-transcript bit-identity exit code and JSON emission (no
#      timing thresholds — CI containers are 1-core and noisy)
#   7b. the simd bench lane: exp_cpu re-run under SETINT_FORCE_SCALAR=1
#      and bench_compare'd against the native-dispatch record — every
#      checksum, digest, bits and rounds cell must be bit-identical across
#      tiers (timing is skipped as cross-tier incomparable) — plus an
#      ASan/UBSan pass over the kernels (ctest -L simd in
#      build-sanitize/)
#   7c. the parties slice by label (runner + party tests, the
#      verification-tree, bucket-EQ and amortized-equality suites,
#      transcript, golden, checkpoint and sans-IO pins), natively and under
#      ASan/UBSan
#   7d. the robustness tests (robustness_test, adversary_test, fuzz_smoke,
#      chaos_test, recorder_test, sim_test) under ASan/UBSan: crafted
#      frames through the word-level decoders, link-level resends under
#      fault-plan bursts and link overlays, the integrity frame's
#      word-level syndrome
#   7e. the multiparty slice by label (both topologies, their shared pair
#      policy and its pins), natively and under ASan/UBSan
#   8. the telemetry-overhead gate (exp_cpu --gate-overhead=50) and the
#      bench_compare self-diff + injected-regression check
#   9. the bench determinism contract (same seed => identical JSON modulo
#      wall_ms)
#  10. the ThreadSanitizer lane: the concurrency + statistical slices
#      rebuilt under TSan (build-tsan/) — the batch engine's data-race
#      gate, including tree_parties_test's two-thread batch whose heap
#      allocation count must not depend on the interleaving — plus
#      exp_service --threads=2/8 (the sharded event loop's
#      thread-invariance gate under TSan)
#
# Usage: tools/ci.sh [--fast]
#   --fast  skip steps 5-9 (inner-loop edit/test cycles)
#
# The ASan/UBSan gate is a separate entry point (it needs its own build
# tree): tools/run_sanitized_tests.sh.
set -euo pipefail

cd "$(dirname "$0")/.."
REPO_ROOT="$PWD"
BUILD_DIR="$REPO_ROOT/build"
JOBS="$(nproc)"

FAST=""
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

step() { echo; echo "=== [ci] $* ==="; }

step "tier-1: configure + build"
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" > /dev/null
cmake --build "$BUILD_DIR" -j "$JOBS"

step "tier-1: full ctest suite"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")

step "robustness slice (ctest -L robustness)"
(cd "$BUILD_DIR" && ctest --output-on-failure -L robustness -j "$JOBS")

step "observability slice (ctest -L observability)"
# Flight recorder, HDR histograms, conformance envelopes, bench_compare
# smoke — cheap enough to keep inside the --fast inner loop.
(cd "$BUILD_DIR" && ctest --output-on-failure -L observability -j "$JOBS")

step "chaos slice (ctest -L chaos)"
# Crash/restart + partition recovery, checkpoint/resume transcript pins,
# exp_chaos safety gates, replay_roundtrip — the PR-7 lane.
(cd "$BUILD_DIR" && ctest --output-on-failure -L chaos -j "$JOBS")

step "overload slice (ctest -L overload)"
# Budgets, backoff, retry pool, admission control, circuit breakers, the
# degradation ladder, and the exp_overload safety/efficiency gates — the
# PR-8 lane. The sweep's own exit code carries the ladder-safety,
# breaker-beats-flat-retry and unhit-budget-bit-identity gates; on top of
# that, bench_compare must pass the committed BENCH_overload.json against
# itself (schema + identity check on the recorded trajectory).
(cd "$BUILD_DIR" && ctest --output-on-failure -L overload -j "$JOBS")
OVERLOAD_DIR="$BUILD_DIR/overload-lane"
rm -rf "$OVERLOAD_DIR"
mkdir -p "$OVERLOAD_DIR/committed"
"$BUILD_DIR/bench/exp_overload" --smoke --seed=24145 \
    --json="$OVERLOAD_DIR/exp_overload.json" > /dev/null
cp "$REPO_ROOT/BENCH_overload.json" "$OVERLOAD_DIR/committed/"
"$BUILD_DIR/tools/bench_compare" "$OVERLOAD_DIR/committed" \
    "$OVERLOAD_DIR/committed"

step "sansio slice (ctest -L sansio)"
# Sans-IO engine + scheduler: step-by-step replay and failed-session
# pins, the scheduler-vs-blocking digest differential, and the
# exp_service gates (S1 digest identity against the blocking engine, S3
# thread invariance) via its exit code. bench_compare must also pass the
# committed BENCH_service.json against itself.
(cd "$BUILD_DIR" && ctest --output-on-failure -L sansio -j "$JOBS")
SANSIO_DIR="$BUILD_DIR/sansio-lane"
rm -rf "$SANSIO_DIR"
mkdir -p "$SANSIO_DIR/committed"
"$BUILD_DIR/bench/exp_service" --smoke --seed=24145 --threads=2 \
    --json="$SANSIO_DIR/exp_service.json" > /dev/null
cp "$REPO_ROOT/BENCH_service.json" "$SANSIO_DIR/committed/"
"$BUILD_DIR/tools/bench_compare" "$SANSIO_DIR/committed" \
    "$SANSIO_DIR/committed"

step "simd slice (ctest -L simd), native dispatch + forced scalar"
# The clmul Toeplitz product and the scalar word loop, each forced, vs a
# bit-at-a-time reference; merge and gallop vs std::set_intersection; the
# golden-transcript and digest pins. Run twice so the word loop is proven
# bit-identical, end to end, on the same box that dispatches clmul.
(cd "$BUILD_DIR" && ctest --output-on-failure -L simd -j "$JOBS")
(cd "$BUILD_DIR" &&
     SETINT_FORCE_SCALAR=1 ctest --output-on-failure -L simd -j "$JOBS")

step "incident replay round-trip (record -> replay, bit-for-bit)"
# Belt to replay_roundtrip's braces: drive the tools/replay CLI exactly as
# an operator would on a fresh incident dump.
REPLAY_DIR="$(mktemp -d)"
trap 'rm -rf "$REPLAY_DIR"' EXIT
for scenario in integrity overlay; do
  DUMP="$("$BUILD_DIR/tools/replay" --record="$REPLAY_DIR/$scenario" \
      --scenario="$scenario" --seed=20260808)"
  "$BUILD_DIR/tools/replay" "$DUMP"
done

if [[ -n "$FAST" ]]; then
  echo
  echo "[ci] --fast: skipping extended fuzz, bench smoke, determinism, TSan"
  echo "[ci] OK"
  exit 0
fi

step "extended fuzz (40k structure-aware inputs, fresh seed)"
"$BUILD_DIR/tests/fuzz/fuzz_driver" --iterations=40000 --seed=20260806 \
    --corpus="$REPO_ROOT/tests/fuzz/corpus"

step "bench pipeline at smoke size (safety gates live in the exit codes)"
# Into a scratch dir — the committed BENCH_*.json records at the repo root
# are full-size and only regenerated deliberately via tools/run_benches.sh.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$SMOKE_DIR-injected" "$REPLAY_DIR"' EXIT
for BIN in "$BUILD_DIR"/bench/exp_*; do
  [[ -x "$BIN" ]] || continue
  NAME="$(basename "$BIN")"
  echo "[ci] $NAME --smoke"
  "$BIN" --smoke --seed=24145 --json="$SMOKE_DIR/$NAME.json" > /dev/null
done

step "perf smoke: exp_cpu bit-identity gate + JSON emission"
# No timing thresholds — CI containers are 1-core and noisy. The gate is
# exp_cpu's exit code (golden-transcript bit identity, engine-vs-baseline
# checksums) plus the JSON record actually appearing.
"$BUILD_DIR/bench/exp_cpu" --smoke --seed=24145 \
    --json="$SMOKE_DIR/perf_smoke_cpu.json" > /dev/null
[[ -s "$SMOKE_DIR/perf_smoke_cpu.json" ]] || {
  echo "[ci] FAIL: exp_cpu produced no JSON record" >&2; exit 1; }

step "simd bench lane: forced-scalar exp_cpu vs native dispatch"
# The scalar-vs-clmul trajectory gate: the same seed under
# SETINT_FORCE_SCALAR=1 must reproduce every deterministic cell of the
# native-dispatch record — transcript digests, engine checksums, bits,
# rounds. bench_compare skips wall_ms cells here by design (different
# dispatch tiers are timing-incomparable); only environment.cpu differs.
SETINT_FORCE_SCALAR=1 "$BUILD_DIR/bench/exp_cpu" --smoke --seed=24145 \
    --json="$SMOKE_DIR/perf_smoke_cpu_scalar.json" > /dev/null
"$BUILD_DIR/tools/bench_compare" "$SMOKE_DIR/perf_smoke_cpu.json" \
    "$SMOKE_DIR/perf_smoke_cpu_scalar.json"

step "simd sanitizer pass (ASan+UBSan over the kernels, -L simd)"
# The intersect tests size outputs at exactly min(na, nb), so ASan proves
# merge and gallop never write past their result; UBSan checks the
# gallop's index arithmetic and the Toeplitz products' shifts, and ASan
# the clmul loads of z and r. Reuses the build-sanitize/ tree.
tools/run_sanitized_tests.sh -L simd

step "parties slice (ctest -L parties), native + ASan/UBSan"
# Every core protocol — equality, Basic-Intersection, one-round hashing,
# the verification tree, bucket-EQ and amortized equality — exists only as
# separated parties; both parties of a run share the session's scratch
# arena, and a resumed run decodes from the runner's replay log of
# recorded frames. The runner/party tests, the verification-tree,
# bucket-EQ and amortized-equality suites and every transcript, golden,
# resume and sans-IO pin run natively and under the sanitizers (reusing
# build-sanitize/).
(cd "$BUILD_DIR" && ctest --output-on-failure -L parties -j "$JOBS")
tools/run_sanitized_tests.sh -L parties

step "robustness sanitizer pass (ASan+UBSan over the word-level decoders)"
# BitReader reads a word and its successor at a time; truncated, flipped
# and crafted frames from the fault, adversary and fuzz tests put every
# read next to the end of the word vector. The chaos and recorder tests
# drive the channel's link-level resends (pooled pristine copies restored
# over damaged, truncated and dropped frames) under fault-plan bursts and
# link overlays. The
# sim tests run the integrity frame's syndrome code, which reads frame
# words up to the tail, over every single and double flip. Reuses
# build-sanitize/.
tools/run_sanitized_tests.sh \
  -R '^(robustness_test|adversary_test|fuzz_smoke|chaos_test|recorder_test|sim_test)$'

step "multiparty slice (ctest -L multiparty), native + ASan/UBSan"
# Coordinator and tournament runs through the one pair-session path: dead
# players, admission sheds, breakers, the shared retry pool, Byzantine
# players and refusals, plus the table pins over both topologies. The
# sanitizers watch the pair channels' crafted and damaged frames and the
# per-player accounting. Reuses build-sanitize/.
(cd "$BUILD_DIR" && ctest --output-on-failure -L multiparty -j "$JOBS")
tools/run_sanitized_tests.sh -L multiparty

step "telemetry overhead gate (exp_cpu --gate-overhead=50)"
# The recorder hook may cost at most 50% on the un-instrumented hot path
# at smoke size. Generous on purpose: a 1-core CI box is noisy and the
# point is catching an accidental O(n) in the hook, not a few percent.
"$BUILD_DIR/bench/exp_cpu" --smoke --seed=24145 --gate-overhead=50 \
    --json="$SMOKE_DIR/overhead_gate_cpu.json" > /dev/null

step "bench_compare: identity pass + injected-regression detection"
# Same records vs themselves must be clean; an injected +25% cost cell
# must flip the exit code — proves the trajectory gate can actually fail.
"$BUILD_DIR/tools/bench_compare" "$SMOKE_DIR" "$SMOKE_DIR"
"$BUILD_DIR/tools/bench_compare" --inject "$SMOKE_DIR" "$SMOKE_DIR-injected"
if "$BUILD_DIR/tools/bench_compare" "$SMOKE_DIR" "$SMOKE_DIR-injected" \
    > /dev/null; then
  echo "[ci] FAIL: bench_compare missed an injected cost regression" >&2
  exit 1
fi
rm -rf "$SMOKE_DIR-injected"

step "bench determinism contract"
tools/check_bench_determinism.sh build/bench/exp_tradeoff \
    build/bench/exp_faults build/bench/exp_adversary build/bench/exp_batch \
    build/bench/exp_chaos build/bench/exp_overload build/bench/exp_service

step "TSan lane: concurrency + statistical slices under ThreadSanitizer"
cmake --preset sanitize-thread > /dev/null
cmake --build --preset sanitize-thread -j "$JOBS" > /dev/null
(cd "$REPO_ROOT/build-tsan" &&
     ctest --output-on-failure -L "concurrency|statistical" -j "$JOBS")
# The sharded event loop with real threads: exp_service's S3 section runs
# the same fleet on 1/2/N scheduler shards and gates on bit-identical
# aggregates, so a data race in run_service shows up either as a TSan
# report or as a broken-invariance nonzero exit.
"$REPO_ROOT/build-tsan/bench/exp_service" --smoke --seed=24145 --threads=2 \
    --json="$REPO_ROOT/build-tsan/exp_service_tsan_t2.json" > /dev/null
"$REPO_ROOT/build-tsan/bench/exp_service" --smoke --seed=24145 --threads=8 \
    --json="$REPO_ROOT/build-tsan/exp_service_tsan_t8.json" > /dev/null

echo
echo "[ci] OK"

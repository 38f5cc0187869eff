#!/usr/bin/env bash
# Regenerates every BENCH_<exp>.json perf-trajectory record at the repo
# root from a Release build with the pinned default seed.
#
# Usage: tools/run_benches.sh [--smoke] [--seed=<u64>] [--only=<exp,...>]
#
#   --smoke       tiny workloads (seconds instead of minutes)
#   --seed=N      override the pinned seed (default 24145 = 0x5e51)
#   --only=a,b    run only the named experiments (names without exp_)
#
# The records are deterministic for a fixed seed except the wall_ms field;
# tools/check_bench_determinism.sh pins that contract.
set -euo pipefail

cd "$(dirname "$0")/.."
REPO_ROOT="$PWD"
BUILD_DIR="$REPO_ROOT/build-bench"

SMOKE=""
SEED="--seed=24145"
ONLY=""
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE="--smoke" ;;
    --seed=*) SEED="$arg" ;;
    --only=*) ONLY="${arg#--only=}" ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

cmake --preset release-bench > /dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" > /dev/null

# Refuse to record BENCH JSON from anything but a Release build: committed
# perf-trajectory numbers (the CPU lane especially) must never mix
# optimization levels.
BUILD_TYPE="$(grep -E '^CMAKE_BUILD_TYPE:' "$BUILD_DIR/CMakeCache.txt" \
              | cut -d= -f2)"
if [[ "$BUILD_TYPE" != "Release" ]]; then
  echo "run_benches: $BUILD_DIR is CMAKE_BUILD_TYPE=$BUILD_TYPE, not Release;" \
       "refusing to record BENCH JSON" >&2
  exit 1
fi

EXPERIMENTS=(tradeoff rounds zoo error multiparty applications
             intersection_size private_coin eqk internals ablation
             disj_tradeoff skew planner faults adversary batch cpu chaos
             overload service)

for exp in "${EXPERIMENTS[@]}"; do
  if [[ -n "$ONLY" && ",$ONLY," != *",$exp,"* ]]; then
    continue
  fi
  echo "[run_benches] exp_$exp"
  "$BUILD_DIR/bench/exp_$exp" $SMOKE "$SEED" \
      "--json=$REPO_ROOT/BENCH_$exp.json" > /dev/null
done
echo "[run_benches] wrote $(ls "$REPO_ROOT"/BENCH_*.json | wc -l) records"

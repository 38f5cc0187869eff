#!/usr/bin/env bash
# Pins the bench determinism contract: two runs of the same binary with
# the same --seed must produce byte-identical BENCH JSON except lines
# mentioning wall_ms — the trailing wall_ms field (kept alone on its own
# line by bench_util.h) and any timing table column, whose names must
# contain "wall_ms" so this filter strips them.
#
# Usage: tools/check_bench_determinism.sh [<path-to-bench-binary>...]
# Default binaries: build/bench/exp_tradeoff, exp_faults and exp_adversary —
# exp_faults and exp_adversary additionally pin that the fault-injection
# and crafted-attack streams are reproducible from the seed alone (the
# BENCH_faults / BENCH_adversary contracts).
set -euo pipefail

cd "$(dirname "$0")/.."
BINS=("$@")
if [[ ${#BINS[@]} -eq 0 ]]; then
  BINS=(build/bench/exp_tradeoff build/bench/exp_faults build/bench/exp_adversary)
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

for BIN in "${BINS[@]}"; do
  if [[ ! -x "$BIN" ]]; then
    cmake -B build -S . > /dev/null
    cmake --build build -j "$(nproc)" --target "$(basename "$BIN")" > /dev/null
  fi

  for run in a b; do
    "$BIN" --smoke --seed=42 --json="$TMP/$run.json" > /dev/null
    sed '/wall_ms/d' "$TMP/$run.json" > "$TMP/$run.filtered"
  done

  if ! cmp -s "$TMP/a.filtered" "$TMP/b.filtered"; then
    echo "FAIL: same-seed runs of $BIN differ beyond wall_ms:" >&2
    diff "$TMP/a.filtered" "$TMP/b.filtered" | head >&2
    exit 1
  fi
  echo "OK: $BIN is deterministic for a fixed seed (modulo wall_ms)"
done

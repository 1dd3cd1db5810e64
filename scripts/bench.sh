#!/bin/sh
# Benchmark-regression harness: run the figure benchmarks, emit
# BENCH_results.json, and gate against the committed BENCH_baseline.json.
#
#   scripts/bench.sh            # run + gate (exit 1 on regression)
#   scripts/bench.sh -update    # refresh the baseline (see EXPERIMENTS.md)
#
# Environment knobs:
#   BENCH_PATTERN  benchmark selector (default: the figure and ablation benchmarks)
#   BENCH_COUNT    repetitions per benchmark; best-of is kept (default 3)
#   BENCH_OUT      result file (default BENCH_results.json)
#
# Each figure benchmark reports ns/op, allocs/op, the figure's headline
# simulator outputs (IOPS, latency, speedup), the kernel work it took
# (sim-events and proc-resumes per op) — all gated exactly: they are
# deterministic — and sim-wall-x, the simulated/wall time-compression ratio
# (recorded, gated only by authored floors). See cmd/benchgate for the gate
# rules.
set -eu
cd "$(dirname "$0")/.."

PATTERN="${BENCH_PATTERN:-Fig|DropIn|MixedRW|Backends|Scrub|Scenarios|ECvsRep|Ablation}"
# A custom BENCH_PATTERN intentionally runs a subset of the baseline;
# benchgate would otherwise fail on the benchmarks the pattern skipped.
SUBSET=""
[ -n "${BENCH_PATTERN:-}" ] && SUBSET="-allow-subset"
COUNT="${BENCH_COUNT:-3}"
OUT="${BENCH_OUT:-BENCH_results.json}"
RAW="$(mktemp /tmp/bench_raw.XXXXXX)"
trap 'rm -f "$RAW"' EXIT

echo "== go test -bench '$PATTERN' -benchtime 1x -count $COUNT -benchmem"
go test -run '^$' -bench "$PATTERN" -benchtime 1x -count "$COUNT" -benchmem . | tee "$RAW"

go run ./cmd/benchgate -in "$RAW" -out "$OUT" -baseline BENCH_baseline.json $SUBSET "$@"

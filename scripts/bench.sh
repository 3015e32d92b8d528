#!/usr/bin/env bash
# bench.sh — run the perf-tracking benchmarks and emit BENCH_<PR>.json.
#
# Usage:
#   scripts/bench.sh              # writes BENCH_10.json in the repo root
#   scripts/bench.sh out.json     # custom output path
#   BENCHTIME=200ms scripts/bench.sh   # quick smoke (CI uses this)
#
# The JSON records ns/op and allocs/op for the tracked hot paths — the
# Bayesian filter tick, the cautious forecast, the fused §5.5 confidence
# sweep and the batched multi-flow forecast, the event loop (fresh-timer
# and reused-timer patterns) — plus the macro-benchmarks: the reduced
# scheme×link matrix on materialized traces, the same grid driven by
# streaming delivery processes, the grid decomposed over two in-process
# shards, and — new in PR 10 — the shared-cell world (one tower's
# delivery process apportioned over 16/256/1024 backlogged flows by the
# proportional-fair scheduler). The "baseline" block holds the PR-7
# recorded numbers those were measured against, so the perf trajectory
# stays auditable across PRs.
#
# Five allocs/op figures are guarded: the matrix, streaming and sharded
# macros at their recorded values (world reuse, the pull path and the
# shard codec must stay allocation-flat), the cautious forecast at zero,
# and the 1024-flow cell world at zero (the flat per-flow tables, reused
# rings and scheduler heap must never touch the heap in steady state). A
# regression of more than 20% over a recorded value (any alloc at all,
# for a recorded zero) fails this script — CI's bench-smoke step turns
# red instead of silently eroding the wins.

set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_10.json}
BENCHTIME=${BENCHTIME:-1s}
MATRIX_BENCHTIME=${MATRIX_BENCHTIME:-1x}
# allocs/op recorded on the PR-5 dev machine (deterministic at
# -benchtime 1x; the two macros must run in one binary, in this order —
# the second reuses the process-wide forecast-table cache). The matrix
# value dropped 21220 → 3528 in PR 5: the §3.1 generator's per-step
# offset buffer is now reused across steps (shared with the streaming
# process) instead of freshly allocated per 10 ms step. Guards allow +20%.
MATRIX_ALLOCS_RECORDED=${MATRIX_ALLOCS_RECORDED:-3528}
STREAMING_ALLOCS_RECORDED=${STREAMING_ALLOCS_RECORDED:-1584}
# PR 7: the two-shard decomposition of the same grid. Fewer allocs than
# the single-engine run (each shard engine sizes its buffers to its own
# half-grid) — the guard still allows +20% over the recorded value.
SHARDED_ALLOCS_RECORDED=${SHARDED_ALLOCS_RECORDED:-2966}
TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT

echo "bench: micro (benchtime $BENCHTIME)..." >&2
go test -run '^$' -bench 'BenchmarkCoreTick$|BenchmarkCoreForecast$|BenchmarkForecastSweep$|BenchmarkForecastBatch$' \
    -benchmem -benchtime "$BENCHTIME" . | tee -a "$TMP" >&2
go test -run '^$' -bench 'BenchmarkLoopThroughput$|BenchmarkLoopTimerReuse$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/sim/ | tee -a "$TMP" >&2

echo "bench: macro matrix + streaming + sharded matrix + cell world (benchtime $MATRIX_BENCHTIME)..." >&2
go test -run '^$' -bench 'BenchmarkMatrixParallel$|BenchmarkStreamingMatrix$|BenchmarkShardedMatrix$|BenchmarkCellWorld$' \
    -benchmem -benchtime "$MATRIX_BENCHTIME" . | tee -a "$TMP" >&2

awk -v out="$OUT" -v mguard="$MATRIX_ALLOCS_RECORDED" -v sguard="$STREAMING_ALLOCS_RECORDED" -v shguard="$SHARDED_ALLOCS_RECORDED" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip -GOMAXPROCS suffix
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns[name] = $i
        if ($(i+1) == "allocs/op") allocs[name] = $i
    }
    seen[name] = 1
}
END {
    printf "{\n"
    printf "  \"pr\": 10,\n"
    printf "  \"description\": \"demand-coupled cell world: one tower delivery process apportioned over N flows by pluggable opportunity schedulers (round-robin, proportional-fair index heap), Poisson churn and handover on a precomputed deterministic schedule, batched per-tick forecasts, flat SoA flow state with zero steady-state allocations\",\n"
    printf "  \"baseline\": {\n"
    printf "    \"comment\": \"PR-7 recorded numbers (BENCH_7.json) on the shared dev machine; no cell-world benchmark existed before PR 10, so BenchmarkCellWorld records its own first baseline here\",\n"
    printf "    \"BenchmarkCoreTick\": {\"ns_per_op\": 13116, \"allocs_per_op\": 0},\n"
    printf "    \"BenchmarkCoreForecast\": {\"ns_per_op\": 67778, \"allocs_per_op\": 0},\n"
    printf "    \"BenchmarkForecastSweep\": {\"ns_per_op\": 107364, \"allocs_per_op\": 0},\n"
    printf "    \"BenchmarkForecastBatch\": {\"ns_per_op\": 1222912, \"allocs_per_op\": 0},\n"
    printf "    \"BenchmarkLoopThroughput\": {\"ns_per_op\": 12.43, \"allocs_per_op\": 0},\n"
    printf "    \"BenchmarkLoopTimerReuse\": {\"ns_per_op\": 14.64, \"allocs_per_op\": 0},\n"
    printf "    \"BenchmarkMatrixParallel\": {\"ns_per_op\": 947783466, \"allocs_per_op\": 3526},\n"
    printf "    \"BenchmarkStreamingMatrix\": {\"ns_per_op\": 506228986, \"allocs_per_op\": 1586},\n"
    printf "    \"BenchmarkShardedMatrix\": {\"ns_per_op\": 1052737282, \"allocs_per_op\": 2962}\n"
    printf "  },\n"
    printf "  \"guard\": {\n"
    printf "    \"comment\": \"bench-smoke fails if a guarded allocs/op regresses >20%% over its recorded value; the forecast hot path and the 1024-flow cell steady state are pinned at zero\",\n"
    printf "    \"BenchmarkCoreForecast_allocs_per_op_recorded\": 0,\n"
    printf "    \"BenchmarkCoreForecast_allocs_per_op_max\": 0,\n"
    printf "    \"BenchmarkCellWorld/1024_allocs_per_op_recorded\": 0,\n"
    printf "    \"BenchmarkCellWorld/1024_allocs_per_op_max\": 0,\n"
    printf "    \"BenchmarkMatrixParallel_allocs_per_op_recorded\": %d,\n", mguard
    printf "    \"BenchmarkMatrixParallel_allocs_per_op_max\": %d,\n", int(mguard * 1.2)
    printf "    \"BenchmarkStreamingMatrix_allocs_per_op_recorded\": %d,\n", sguard
    printf "    \"BenchmarkStreamingMatrix_allocs_per_op_max\": %d,\n", int(sguard * 1.2)
    printf "    \"BenchmarkShardedMatrix_allocs_per_op_recorded\": %d,\n", shguard
    printf "    \"BenchmarkShardedMatrix_allocs_per_op_max\": %d\n", int(shguard * 1.2)
    printf "  },\n"
    printf "  \"results\": {\n"
    n = 0
    for (name in seen) order[++n] = name
    # stable order for diffs (insertion sort; asort is gawk-only)
    for (i = 2; i <= n; i++) {
        v = order[i]
        for (j = i - 1; j >= 1 && order[j] > v; j--) order[j+1] = order[j]
        order[j+1] = v
    }
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    \"%s\": {\"ns_per_op\": %s, \"allocs_per_op\": %s}%s\n",
            name, ns[name], (name in allocs) ? allocs[name] : "null",
            (i < n) ? "," : ""
    }
    printf "  }\n"
    printf "}\n"
}' "$TMP" > "$OUT"

echo "bench: wrote $OUT" >&2
cat "$OUT"

# Alloc-regression gates on the experiment layer: the macro benchmarks
# are deterministic in allocs/op, so a >20% excursion is a real
# regression, not noise.
gate() {
    local bench=$1 recorded=$2
    local measured
    measured=$(awk -v b="^$bench(-[0-9]+)?$" '$1 ~ b {
        for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op") print $i
    }' "$TMP" | head -n1)
    if [ -z "${measured:-}" ]; then
        # A gate that cannot parse its input must fail, not silently pass.
        echo "bench: FAIL — could not extract $bench allocs/op from benchmark output" >&2
        exit 1
    fi
    local limit=$(( recorded + recorded / 5 ))
    if [ "$measured" -gt "$limit" ]; then
        echo "bench: FAIL — $bench allocs/op $measured exceeds guard $limit (recorded $recorded +20%)" >&2
        exit 1
    fi
    echo "bench: $bench allocs/op $measured within guard $limit" >&2
}
gate BenchmarkCoreForecast 0
gate 'BenchmarkCellWorld/1024' 0
gate BenchmarkMatrixParallel "$MATRIX_ALLOCS_RECORDED"
gate BenchmarkStreamingMatrix "$STREAMING_ALLOCS_RECORDED"
gate BenchmarkShardedMatrix "$SHARDED_ALLOCS_RECORDED"

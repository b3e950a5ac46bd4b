#!/bin/sh
# Bench-regression gate: re-runs the gated benchmark set and compares it
# against the NEWEST committed BENCH_pr*.json baseline with cmd/benchdiff.
# Policy (which entries are time-gated, tolerances, alloc slack) lives in
# scripts/bench_gates.json; see the header of cmd/benchdiff/main.go for
# the comparison rules.
#
# The gate fails when a gated entry regresses past its ns/op tolerance
# (default +10%, min-of-3 runs vs baseline) or allocates more per op than
# baseline + slack, or when a required entry disappears from the run.
#
# Waiver path for an INTENDED regression: re-measure the baseline
# (protocol in the BENCH_prN.json notes), commit the updated/new
# BENCH_prN.json in the same PR, and justify it in the PR description.
# There is deliberately no skip flag.
#
# Run from the repository root:  sh scripts/check_bench.sh
set -eu

BASELINE=$(ls BENCH_pr*.json | sort -t r -k 2 -n | tail -1)
OUT=${BENCH_OUT:-/tmp/bench_fresh.txt}
: >"$OUT"

echo "== bench gate: fresh run vs $BASELINE =="

# Disk/GC-bound entries: alloc-gated only, so one pass of -count 3 at
# 1x is enough signal.
go test ./internal/bench -run '^$' -benchmem -count 3 -benchtime 1x \
    -bench 'AddBulk/|AddBulkWAL/|Recovery/|EvaluateAllParallel/' | tee -a "$OUT"

# The service sweep is time-gated: -benchtime 10x amortises HTTP setup
# so the min-of-3 is stable enough for a tight tolerance.
go test ./internal/bench -run '^$' -benchmem -count 3 -benchtime 10x \
    -bench 'CoalescedServiceSweep/' | tee -a "$OUT"

# CPU-bound batch-predict rows (K predictions against one already-built
# factor): fixed 100 iterations keeps the full blocked/sequential x n x K
# grid under a second per pass; the blocked rows are time-gated,
# everything is zero-alloc-gated (policy in bench_gates.json).
go test ./internal/kriging -run '^$' -benchmem -count 3 -benchtime 100x \
    -bench 'PredictBatch/' | tee -a "$OUT"

# Remote simulator pool: real worker processes (spawned outside the
# timer), 64 x 2ms sleep simulations per op through 1/2/4 workers.
# Wall-clock is sim-latency-bound and spreads with host load, so the
# rows are alloc-gated only (the scheduler+HTTP client cost per batch);
# the >= 3x scaling claim is enforced by TestRemoteSimPoolSpeedup.
go test ./internal/simpool -run '^$' -benchmem -count 3 -benchtime 3x \
    -bench 'RemoteSimPool/' | tee -a "$OUT"

go run ./cmd/benchdiff \
    -baseline "$BASELINE" \
    -gates scripts/bench_gates.json \
    -require 'AddBulk|Recovery|EvaluateAllParallel|CoalescedServiceSweep|PredictBatch|RemoteSimPool' \
    "$OUT"

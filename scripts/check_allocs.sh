#!/bin/sh
# Allocation gate: runs the TestAllocs* tests — the testing.AllocsPerRun
# contracts of the query fast paths — WITHOUT the race detector (race
# instrumentation allocates on its own, so the same tests skip themselves
# under -race; see internal/raceflag).
#
# Gates enforced:
#   - linalg:    SolveInto on warm factors, refactoring (0 allocs)
#   - kriging:   Ordinary/Simple Predict, PredictBatch (0 allocs)
#                IDW/Nearest/Capped baselines         (0 allocs)
#   - store:     warm NeighborsInto / NearestKInto    (0 allocs)
#                durable AddBatch over in-memory      (O(1) per batch)
#   - store/wal: warm Log.Append group commit         (O(1) per batch)
#   - evaluator: exact-hit Evaluate                   (0 allocs)
#                steady-state interpolated Evaluate   (<= 1 alloc)
#   - signal:    fir/iir/fft NoisePower               (constant, <= 2)
#   - hevc:      luma/chroma NoisePower, SSIM Evaluate (constant, <= 2)
#
# Run from the repository root:  sh scripts/check_allocs.sh
set -eu

go test -count=1 -run 'TestAllocs|TestSolveIntoAllocs' \
    ./internal/linalg ./internal/kriging ./internal/store \
    ./internal/store/wal ./internal/evaluator ./internal/signal \
    ./internal/hevc
echo "allocation gates OK"

package bench

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/kriging"
	"repro/internal/rng"
	"repro/internal/variogram"
)

// batchSupport builds a deterministic n-point support on a 4-D integer
// lattice (distinct points, linear field + noise) plus k query points —
// the shape of one candidate round kriged against one support.
func batchSupport(n, k int, seed uint64) (xs [][]float64, ys []float64, queries [][]float64) {
	r := rng.New(seed)
	seen := map[string]bool{}
	xs = make([][]float64, 0, n)
	ys = make([]float64, 0, n)
	for len(xs) < n {
		x := make([]float64, 4)
		key := ""
		for i := range x {
			x[i] = float64(r.IntRange(0, 30))
			key += fmt.Sprintf("%v,", x[i])
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		var y float64
		for i, v := range x {
			y += float64(i+1) * v
		}
		xs = append(xs, x)
		ys = append(ys, y+r.NormScaled(0, 0.5))
	}
	queries = make([][]float64, k)
	for j := range queries {
		queries[j] = []float64{r.Float64() * 30, r.Float64() * 30, r.Float64() * 30, r.Float64() * 30}
	}
	return xs, ys, queries
}

// predictEach is the sequential arm of the batch measurements: K
// single-query Predict calls against one support, each building the
// support's system afresh.
func predictEach(o *kriging.Ordinary, xs [][]float64, ys []float64, queries [][]float64, out []float64) error {
	for j, q := range queries {
		v, err := o.Predict(xs, ys, q)
		if err != nil {
			return err
		}
		out[j] = v
	}
	return nil
}

// predictArms are the two arms of the batch measurements: one blocked
// PredictBatch call, which builds the system once, and a loop of Predict
// calls, which builds it per query.
var predictArms = []struct {
	name    string
	predict func(o *kriging.Ordinary, xs [][]float64, ys []float64, queries [][]float64, out []float64) error
}{
	{"blocked", (*kriging.Ordinary).PredictBatch},
	{"sequential", predictEach},
}

// TestBatchPredictSpeedup is the acceptance gate of the blocked predict
// path (in the style of TestMultiTenantCoalescingSpeedup): at n=100,
// K=8 — one infill round's candidates against one support — the blocked
// arm must run >= 3x faster than a loop of K Predict calls, with
// bit-identical results. Each Predict builds the support's system, which
// is the choice the evaluator's krige makes for a group of one; the
// blocked arm builds it once per call, so the ratio covers the
// factorisations a batch saves as well as the blocked solve kernels.
func TestBatchPredictSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement; skipped under -short")
	}
	const n, k = 100, 8
	model := &variogram.SphericalModel{Range: 40, Sill: 9, Nugget: 0.1}
	xs, ys, queries := batchSupport(n, k, 1234)

	o := &kriging.Ordinary{Model: model}
	outB := make([]float64, k)
	outS := make([]float64, k)
	if err := o.PredictBatch(xs, ys, queries, outB); err != nil {
		t.Fatal(err)
	}
	if err := predictEach(o, xs, ys, queries, outS); err != nil {
		t.Fatal(err)
	}
	for j := range outB {
		if math.Float64bits(outB[j]) != math.Float64bits(outS[j]) {
			t.Fatalf("query %d: blocked %v != sequential %v (must be bit-identical)", j, outB[j], outS[j])
		}
	}

	blocked, sequential := predictArms[0].predict, predictArms[1].predict
	measure := func(predict func(*kriging.Ordinary, [][]float64, []float64, [][]float64, []float64) error, out []float64, rounds int) time.Duration {
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if err := predict(o, xs, ys, queries, out); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	// Calibrate the round count on the sequential arm so the measured
	// interval is long enough to swamp timer noise, then take the best of
	// three paired runs (scheduler hiccups only ever slow a run down).
	rounds := 1
	for measure(sequential, outS, rounds) < 10*time.Millisecond {
		rounds *= 2
	}
	ratio := 0.0
	for trial := 0; trial < 3; trial++ {
		seqT := measure(sequential, outS, rounds)
		blkT := measure(blocked, outB, rounds)
		if r := float64(seqT) / float64(blkT); r > ratio {
			ratio = r
		}
	}
	t.Logf("predict fraction at n=%d, K=%d: blocked %.2fx faster than sequential (best of 3)", n, k, ratio)
	if ratio < 3 {
		t.Errorf("blocked predict speedup %.2fx below the 3x acceptance floor", ratio)
	}
}

package bench

import (
	"fmt"
	"testing"

	"repro/internal/kriging"
	"repro/internal/rng"
	"repro/internal/variogram"
)

// BenchmarkInfillRound measures one sequential-infill round at a fixed
// support size n: the store has grown by one freshly simulated point and
// the min+1 competition predicts 4 sibling candidates on the n+1-point
// support. The first candidate factorises that support from scratch (no
// cached system matches it exactly); the remaining 3 hit the cache.
func BenchmarkInfillRound(b *testing.B) {
	model := &variogram.ExponentialModel{Sill: 40, Range: 6, Nugget: 0.1}
	const pool = 256
	const nCands = 4
	for _, n := range []int{50, 100, 200} {
		r := rng.New(uint64(n) * 7)
		seen := map[string]bool{}
		xs := make([][]float64, 0, n+pool)
		ys := make([]float64, 0, n+pool)
		for len(xs) < n+pool {
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
		cands := make([][]float64, nCands)
		for i := range cands {
			cands[i] = []float64{r.Float64() * 30, r.Float64() * 30, r.Float64() * 30, r.Float64() * 30}
		}
		// Pre-build the per-round supports: base + one appended pool point.
		type round struct {
			xs [][]float64
			ys []float64
		}
		rounds := make([]round, pool)
		for i := range rounds {
			j := n + i
			rounds[i] = round{
				xs: append(append(make([][]float64, 0, n+1), xs[:n]...), xs[j]),
				ys: append(append(make([]float64, 0, n+1), ys[:n]...), ys[j]),
			}
		}
		b.Run(fmt.Sprintf("refactor/n=%d", n), func(b *testing.B) {
			o := &kriging.Ordinary{Model: model}
			for i := 0; i < b.N; i++ {
				rd := rounds[i%pool]
				for _, q := range cands {
					if _, err := o.Predict(rd.xs, rd.ys, q); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		// Predict-fraction sub-measurement: the K=8 candidate predictions
		// of one round against the warm cached factor, blocked vs a loop
		// of Predict calls. Measured under a spherical
		// (cheap-γ) model so the rows isolate the triangular-solve
		// fraction the blocked kernels accelerate — under the exponential
		// model above, math.Exp in the RHS build (identical work either
		// way) dilutes the ratio. TestBatchPredictSpeedup gates the n=100
		// row at >= 3x.
		predictModel := &variogram.SphericalModel{Range: 40, Sill: 9, Nugget: 0.1}
		const kWide = 8
		wide := make([][]float64, kWide)
		for i := range wide {
			wide[i] = []float64{r.Float64() * 30, r.Float64() * 30, r.Float64() * 30, r.Float64() * 30}
		}
		out := make([]float64, kWide)
		for _, arm := range predictArms {
			b.Run(fmt.Sprintf("predict/%s/n=%d", arm.name, n), func(b *testing.B) {
				o := &kriging.Ordinary{Model: predictModel}
				if err := arm.predict(o, xs[:n], ys[:n], wide, out); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := arm.predict(o, xs[:n], ys[:n], wide, out); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

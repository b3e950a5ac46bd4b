package kriging

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/variogram"
)

// neighborhood draws an n-point support around a 23-variable word-length
// configuration, each point the centre with one to three coordinates
// moved by ±1 or ±2, and a query one step from the centre: the shape of
// an evaluator's kriging neighbourhood on the hevc lattice.
func neighborhood(r *rng.Stream, n int) (xs [][]float64, ys []float64, q []float64) {
	const nv = 23
	centre := make([]float64, nv)
	for i := range centre {
		centre[i] = float64(r.IntRange(8, 16))
	}
	field := func(x []float64) float64 {
		var y float64
		for i, v := range x {
			y -= float64(1+i%3) * v
		}
		return y
	}
	seen := map[string]bool{}
	for len(xs) < n {
		x := append([]float64(nil), centre...)
		for moves := 1 + r.Intn(3); moves > 0; moves-- {
			step := float64(1 + r.Intn(2))
			if r.Intn(2) == 0 {
				step = -step
			}
			x[r.Intn(nv)] += step
		}
		if key := fmt.Sprint(x); !seen[key] {
			seen[key] = true
			xs = append(xs, x)
			ys = append(ys, field(x)+r.NormScaled(0, 0.5))
		}
	}
	q = append([]float64(nil), centre...)
	q[r.Intn(nv)]++
	return xs, ys, q
}

// BenchmarkOrdinaryPredict measures one prediction, system build
// included, with the default power fit at the support sizes the
// evaluator's campaigns see (means of 2 to 5 points, capped at 10).
func BenchmarkOrdinaryPredict(b *testing.B) {
	for _, n := range []int{2, 4, 10} {
		xs, ys, q := neighborhood(rng.New(uint64(n)), n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			o := &Ordinary{}
			for i := 0; i < b.N; i++ {
				if _, err := o.Predict(xs, ys, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

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

// BenchmarkPredictBatch measures K predictions against one already-built
// factor: one blocked multi-RHS solve of all K queries vs K single-query
// solves, across support sizes and batch widths. The system is built
// once, outside the timer. The spherical model keeps γ evaluation cheap
// so the rows expose the triangular-solve fraction the blocked kernels
// accelerate; K=1 pins the blocked path's small-batch overhead (it
// degrades to the single-RHS kernels).
func BenchmarkPredictBatch(b *testing.B) {
	model := &variogram.SphericalModel{Range: 40, Sill: 9, Nugget: 0.1}
	for _, n := range []int{50, 100, 200} {
		for _, k := range []int{1, 8, 64} {
			xs, ys, queries := batchSupport(n, k, uint64(n)*31+uint64(k))
			out := make([]float64, k)
			outVar := make([]float64, k)
			o := &Ordinary{Model: model}
			s := new(predictScratch)
			sys, err := o.system(s, xs, ys)
			if err != nil {
				b.Fatal(err)
			}
			arms := []struct {
				name  string
				solve func() error
			}{
				{"blocked", func() error { return o.solveBatch(s, sys, xs, ys, queries, out, outVar) }},
				{"sequential", func() error {
					for j := range queries {
						if err := o.solveBatch(s, sys, xs, ys, queries[j:j+1], out[j:j+1], outVar[j:j+1]); err != nil {
							return err
						}
					}
					return nil
				}},
			}
			for _, arm := range arms {
				b.Run(fmt.Sprintf("%s/n=%d/k=%d", arm.name, n, k), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if err := arm.solve(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

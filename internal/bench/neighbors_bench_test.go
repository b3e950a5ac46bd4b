package bench

import (
	"fmt"
	"testing"

	"repro/internal/evaluator"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/store"
)

// The neighbour-scaling benchmarks measure the store's radius scan on
// stores of increasing size:
//
//	go test ./internal/bench -run '^$' -bench NeighborsScaling
//
// The workload is a 4-variable hypercube with coordinates in [0, 25]
// and the paper's d = 3 radius regime, sized so a 100k-entry store
// yields kriging supports of a few tens of points per query.
const (
	scalingNv    = 4
	scalingCoord = 25
	scalingD     = 3.0
)

func scalingConfig(r *rng.Stream) space.Config {
	c := make(space.Config, scalingNv)
	for i := range c {
		c[i] = r.IntRange(0, scalingCoord)
	}
	return c
}

func scalingQueries(seed uint64, n int) []space.Config {
	r := rng.New(seed)
	qs := make([]space.Config, n)
	for i := range qs {
		qs[i] = scalingConfig(r)
	}
	return qs
}

// scalingStores caches prefilled stores across sub-benchmarks so the
// query benchmarks measure queries, not setup (the bulk load itself is
// measured by BenchmarkAddBulk).
var scalingStores = map[int]*store.Store{}

func scalingStore(n int) *store.Store {
	if s, ok := scalingStores[n]; ok {
		return s
	}
	r := rng.New(uint64(n))
	s := store.New()
	for s.Len() < n {
		batch := make([]store.Entry, n-s.Len())
		for i := range batch {
			batch[i] = store.Entry{Config: scalingConfig(r), Lambda: r.Float64()}
		}
		s.AddBatch(batch)
	}
	scalingStores[n] = s
	return s
}

// BenchmarkNeighborsScaling reports the per-query cost of the raw store
// radius scan at 1k/10k/100k entries. ns/op is one Neighbors call at
// d = 3.
func BenchmarkNeighborsScaling(b *testing.B) {
	queries := scalingQueries(99, 512)
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := scalingStore(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Neighbors(queries[i%len(queries)], scalingD)
			}
		})
	}
}

// BenchmarkNeighborsScalingEvaluate is the end-to-end view of the same
// scan: one full evaluator query (exact-hit lookup, neighbourhood
// collection, kriging or simulation) against a 50k-entry support store.
// The simulator is free, so ns/op isolates the evaluation pipeline
// itself, which the radius scan dominates at scale.
func BenchmarkNeighborsScalingEvaluate(b *testing.B) {
	const prefill = 50000
	sim := evaluator.SimulatorFunc{
		NumVars: scalingNv,
		Fn: func(cfg space.Config) (float64, error) {
			s := 0
			for _, v := range cfg {
				s += v
			}
			return float64(s), nil
		},
	}
	b.Run(fmt.Sprintf("n=%d", prefill), func(b *testing.B) {
		ev, err := evaluator.New(sim, evaluator.Options{D: scalingD, MaxSupport: 10})
		if err != nil {
			b.Fatal(err)
		}
		r := rng.New(prefill)
		for ev.Store().Len() < prefill {
			ev.Store().Add(scalingConfig(r), r.Float64())
		}
		queries := scalingQueries(7, 4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ev.Evaluate(queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package kriging

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/variogram"
)

// drawSupport builds n distinct lattice-ish support points with a smooth
// field plus noise — the word-length optimisation shape.
func drawSupport(r *rng.Stream, n, dim int) ([][]float64, []float64) {
	seen := map[string]bool{}
	xs := make([][]float64, 0, n)
	ys := make([]float64, 0, n)
	for len(xs) < n {
		x := make([]float64, dim)
		key := ""
		for i := range x {
			x[i] = float64(r.IntRange(0, 14))
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
	return xs, ys
}

// support4 is a small 2-D support with a smooth field.
func support4() ([][]float64, []float64) {
	xs := [][]float64{{0, 0}, {0, 4}, {4, 0}, {4, 4}}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x[0] + 2*x[1]
	}
	return xs, ys
}

// TestCachedOrdinaryMatchesUncached demands bit-identical predictions
// between one caching Ordinary reused across repeated queries on a
// shared support and a fresh interpolator per query.
func TestCachedOrdinaryMatchesUncached(t *testing.T) {
	xs, ys := support4()
	cached := &Ordinary{}
	queries := [][]float64{{1, 1}, {2, 3}, {3.5, 0.5}, {1, 1}, {2, 3}}
	for _, q := range queries {
		v1, var1, err1 := cached.PredictVar(xs, ys, q)
		v2, var2, err2 := (&Ordinary{}).PredictVar(xs, ys, q)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error mismatch at %v: %v vs %v", q, err1, err2)
		}
		if math.Float64bits(v1) != math.Float64bits(v2) || math.Float64bits(var1) != math.Float64bits(var2) {
			t.Errorf("query %v: cached (%v, %v) != fresh (%v, %v)", q, v1, var1, v2, var2)
		}
	}
	if n := cached.cache.len(); n != 1 {
		t.Errorf("expected exactly one cached system, have %d", n)
	}
}

// TestCachedSimpleMatchesUncached does the same for simple kriging and
// checks that a bounded model's positive definite covariance system was
// factored by Cholesky.
func TestCachedSimpleMatchesUncached(t *testing.T) {
	xs, ys := support4()
	model := &variogram.ExponentialModel{Sill: 40, Range: 3}
	cached := &Simple{Model: model}
	for _, q := range [][]float64{{1, 1}, {2, 2}, {1, 1}} {
		v1, err1 := cached.Predict(xs, ys, q)
		v2, err2 := (&Simple{Model: model}).Predict(xs, ys, q)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error mismatch at %v: %v vs %v", q, err1, err2)
		}
		if math.Float64bits(v1) != math.Float64bits(v2) {
			t.Errorf("query %v: cached %v != fresh %v", q, v1, v2)
		}
	}
	sys, err := cached.cache.system(cached, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if sys.chol == nil {
		t.Error("simple-kriging covariance system did not take the Cholesky path")
	}
}

// TestGrownSupportMatchesFresh pins the exact-match rule of the factor
// cache: a fixed-model interpolator whose cache has seen a support grow
// one trailing point at a time (the sequential-infill shape) must answer
// every prediction bit for bit like a fresh interpolator on the same
// support, for a bounded and an unbounded model. A cached λ must never
// depend on what the cache saw before.
func TestGrownSupportMatchesFresh(t *testing.T) {
	const first, last = 4, 24
	xs, ys := drawSupport(rng.New(31), last, 3)
	q := []float64{5.5, 6.5, 7.5}
	for _, model := range []variogram.Model{
		&variogram.ExponentialModel{Sill: 30, Range: 6, Nugget: 0.1},
		&variogram.PowerModel{Alpha: 1, Beta: 1.5},
	} {
		for _, mk := range []func() Interpolator{
			func() Interpolator { return &Ordinary{Model: model} },
			func() Interpolator { return &Simple{Model: model} },
		} {
			grown := mk()
			name := fmt.Sprintf("%s/%T", grown.Name(), model)
			diffs := 0
			for n := first; n <= last; n++ {
				got, err := grown.Predict(xs[:n], ys[:n], q)
				if err != nil {
					t.Fatalf("%s n=%d: grown: %v", name, n, err)
				}
				want, err := mk().Predict(xs[:n], ys[:n], q)
				if err != nil {
					t.Fatalf("%s n=%d: fresh: %v", name, n, err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					diffs++
					t.Logf("%s n=%d: grown-cache %v != fresh %v (diff %g)", name, n, got, want, got-want)
				}
			}
			if diffs > 0 {
				t.Errorf("%s: %d of %d predictions differ from a fresh interpolator", name, diffs, last-first+1)
			}
		}
	}
}

// incrementalModels are the fixed bounded variogram models the support-
// growth property tests sweep; all three qualify for both interpolators.
func incrementalModels() map[string]variogram.Model {
	return map[string]variogram.Model{
		"spherical":   &variogram.SphericalModel{Sill: 30, Range: 8, Nugget: 0.1},
		"exponential": &variogram.ExponentialModel{Sill: 25, Range: 5, Nugget: 0.05},
		"gaussian":    &variogram.GaussianModel{Sill: 20, Range: 6, Nugget: 0.2},
	}
}

// TestIncrementalOrdinaryMatchesFull is the property test of support
// growth through the ordinary-kriging cache: across 100 seeded supports
// and three bounded models, a prediction on a support grown by a few
// trailing points, made by an interpolator whose cache holds the base
// support, must match a fresh interpolator bit for bit, and the grown
// support must be cached as its own system beside the base one.
func TestIncrementalOrdinaryMatchesFull(t *testing.T) {
	const trials = 100
	for name, model := range incrementalModels() {
		t.Run(name, func(t *testing.T) {
			r := rng.NewNamed(3, name)
			for trial := 0; trial < trials; trial++ {
				n := 6 + r.Intn(18)
				grow := 1 + r.Intn(4)
				dim := 2 + r.Intn(3)
				xs, ys := drawSupport(r, n+grow, dim)
				inc := &Ordinary{Model: model}
				q := make([]float64, dim)
				for i := range q {
					q[i] = r.Float64() * 14
				}
				if _, err := inc.Predict(xs[:n], ys[:n], q); err != nil {
					t.Fatalf("trial %d: base predict: %v", trial, err)
				}
				got, gotVar, err := inc.PredictVar(xs, ys, q)
				if err != nil {
					t.Fatalf("trial %d: grown predict: %v", trial, err)
				}
				want, wantVar, err := (&Ordinary{Model: model}).PredictVar(xs, ys, q)
				if err != nil {
					t.Fatalf("trial %d: fresh predict: %v", trial, err)
				}
				if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(gotVar) != math.Float64bits(wantVar) {
					t.Fatalf("trial %d (n=%d +%d): grown (%v, %v) vs fresh (%v, %v)",
						trial, n, grow, got, gotVar, want, wantVar)
				}
				if c := inc.cache.len(); c != 2 {
					t.Fatalf("trial %d: cache holds %d systems, want base + grown = 2", trial, c)
				}
			}
		})
	}
}

// TestIncrementalSimpleMatchesFull is the simple-kriging twin of
// TestIncrementalOrdinaryMatchesFull.
func TestIncrementalSimpleMatchesFull(t *testing.T) {
	const trials = 100
	for name, model := range incrementalModels() {
		t.Run(name, func(t *testing.T) {
			r := rng.NewNamed(5, name)
			for trial := 0; trial < trials; trial++ {
				n := 6 + r.Intn(18)
				grow := 1 + r.Intn(4)
				dim := 2 + r.Intn(3)
				xs, ys := drawSupport(r, n+grow, dim)
				inc := &Simple{Model: model}
				q := make([]float64, dim)
				for i := range q {
					q[i] = r.Float64() * 14
				}
				if _, err := inc.Predict(xs[:n], ys[:n], q); err != nil {
					t.Fatalf("trial %d: base predict: %v", trial, err)
				}
				got, err := inc.Predict(xs, ys, q)
				if err != nil {
					t.Fatalf("trial %d: grown predict: %v", trial, err)
				}
				want, err := (&Simple{Model: model}).Predict(xs, ys, q)
				if err != nil {
					t.Fatalf("trial %d: fresh predict: %v", trial, err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d (n=%d +%d): grown %v vs fresh %v", trial, n, grow, got, want)
				}
				if c := inc.cache.len(); c != 2 {
					t.Fatalf("trial %d: cache holds %d systems, want base + grown = 2", trial, c)
				}
			}
		})
	}
}

// TestIncrementalGrowthChain walks a long sequential-infill chain — one
// appended point per round, every round predicted — and checks bit-for-
// bit agreement with a fresh interpolator at every step, and that every
// grown support was cached as a distinct system.
func TestIncrementalGrowthChain(t *testing.T) {
	model := &variogram.ExponentialModel{Sill: 30, Range: 6, Nugget: 0.1}
	r := rng.New(11)
	const rounds = 48
	xs, ys := drawSupport(r, 4+rounds, 3)
	inc := &Ordinary{Model: model}
	q := []float64{5.5, 6.5, 7.5}
	for n := 4; n <= 4+rounds; n++ {
		got, err := inc.Predict(xs[:n], ys[:n], q)
		if err != nil {
			t.Fatalf("n=%d: grown: %v", n, err)
		}
		want, err := (&Ordinary{Model: model}).Predict(xs[:n], ys[:n], q)
		if err != nil {
			t.Fatalf("n=%d: fresh: %v", n, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: grown %v vs fresh %v (diff %g)", n, got, want, got-want)
		}
	}
	if c := inc.cache.len(); c != rounds+1 {
		t.Errorf("cache holds %d systems after %d growth rounds, want %d", c, rounds, rounds+1)
	}
}

// TestIncrementalRequiresFixedModel covers growth under a per-support
// fitted model: the refit changes every matrix entry, so the grown
// support must be answered exactly like a fresh interpolator would.
func TestIncrementalRequiresFixedModel(t *testing.T) {
	r := rng.New(13)
	xs, ys := drawSupport(r, 12, 3)
	o := &Ordinary{} // Model nil: fitted per support
	q := []float64{4.5, 5.5, 3.5}
	if _, err := o.Predict(xs[:10], ys[:10], q); err != nil {
		t.Fatal(err)
	}
	got, err := o.Predict(xs, ys, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&Ordinary{}).Predict(xs, ys, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("fitted-model grown support diverged from fresh: %v vs %v", got, want)
	}
}

// TestIncrementalUnboundedSimpleRefactors covers simple kriging with an
// unbounded model, whose sill depends on the support separations: the
// grown support must be refactorised and match a fresh interpolator.
func TestIncrementalUnboundedSimpleRefactors(t *testing.T) {
	r := rng.New(17)
	xs, ys := drawSupport(r, 12, 3)
	s := &Simple{Model: &variogram.PowerModel{Alpha: 1, Beta: 1.5}}
	sf := &Simple{Model: &variogram.PowerModel{Alpha: 1, Beta: 1.5}}
	q := []float64{4.5, 5.5, 3.5}
	if _, err := s.Predict(xs[:10], ys[:10], q); err != nil {
		t.Fatal(err)
	}
	got, err := s.Predict(xs, ys, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sf.Predict(xs, ys, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("refactor path diverged from fresh: %v vs %v", got, want)
	}
}

// TestCacheDistinguishesSupports verifies that changing either the
// coordinates or the values reaches a different cached system.
func TestCacheDistinguishesSupports(t *testing.T) {
	o := &Ordinary{}
	xs, ys := support4()
	if _, err := o.Predict(xs, ys, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	ys2 := append([]float64(nil), ys...)
	ys2[0] += 5
	v1, err := o.Predict(xs, ys, []float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := o.Predict(xs, ys2, []float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if v1 == v2 {
		t.Error("different support values produced the same prediction (stale cache hit?)")
	}
	if o.cache.len() != 2 {
		t.Errorf("cache holds %d systems, want 2", o.cache.len())
	}
}

// TestCacheEviction fills a tiny cache past capacity and checks the LRU
// bound holds, the least recently used support goes first, and every
// hit is the system stored for that support.
func TestCacheEviction(t *testing.T) {
	c := &systemCache{capacity: 2}
	o := &Ordinary{}
	support := func(i int) ([][]float64, []float64) {
		xs := [][]float64{{float64(i), 0}, {float64(i), 4}, {float64(i) + 4, 0}, {float64(i) + 4, 4}}
		ys := make([]float64, len(xs))
		for j, x := range xs {
			ys[j] = x[0] + x[1]
		}
		return xs, ys
	}
	built := make([]*factored, 5)
	for i := range built {
		xs, ys := support(i)
		sys, err := c.system(o, xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		built[i] = sys
		if got := c.len(); got > 2 {
			t.Fatalf("round %d: cache grew to %d systems, cap 2", i, got)
		}
	}
	for i, sys := range built {
		xs, ys := support(i)
		got, ok := c.get(supportFingerprint(xs, ys), xs, ys)
		if wantHit := i >= 3; ok != wantHit {
			t.Errorf("support %d: cache hit %v, want %v", i, ok, wantHit)
		}
		if ok && got != sys {
			t.Errorf("support %d: cache returned another support's system", i)
		}
	}
}

// TestCacheConcurrentPredict hammers one caching interpolator from many
// goroutines over a handful of supports; run with -race.
func TestCacheConcurrentPredict(t *testing.T) {
	o := &Ordinary{}
	xs, ys := support4()
	xsB := [][]float64{{0, 0}, {0, 6}, {6, 0}, {6, 6}}
	ysB := []float64{0, 12, 18, 30}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := []float64{float64(g%5) + 0.5, float64(i%5) + 0.5}
				var err error
				if g%2 == 0 {
					_, err = o.Predict(xs, ys, q)
				} else {
					_, err = o.Predict(xsB, ysB, q)
				}
				if err != nil {
					t.Errorf("g=%d i=%d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkOrdinaryPredict measures repeated predictions over one shared
// support, the min+1 competition access pattern, answered from the
// factored-system cache and by a fresh interpolator per query.
func BenchmarkOrdinaryPredict(b *testing.B) {
	n := 20
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{float64(i % 5), float64(i / 5)}
		ys[i] = 3*xs[i][0] + 2*xs[i][1]
	}
	cached := &Ordinary{}
	for _, tc := range []struct {
		name string
		o    func() *Ordinary
	}{
		{"cached", func() *Ordinary { return cached }},
		{"uncached", func() *Ordinary { return &Ordinary{} }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := []float64{float64(i%4) + 0.5, float64(i%3) + 0.5}
				if _, err := tc.o().Predict(xs, ys, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package kriging

import (
	"fmt"
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

// predictVar answers one query through ip's public API, with the
// kriging variance for Ordinary (zero for the others).
func predictVar(ip Interpolator, xs [][]float64, ys []float64, q []float64) (float64, float64, error) {
	if o, ok := ip.(*Ordinary); ok {
		return o.PredictVar(xs, ys, q)
	}
	v, err := ip.Predict(xs, ys, q)
	return v, 0, err
}

// refPredictVar is predictVar through the reference implementation of
// ip's kind (batch_test.go), which builds every system in fresh buffers.
func refPredictVar(ip Interpolator, xs [][]float64, ys []float64, q []float64) (float64, float64, error) {
	switch ip := ip.(type) {
	case *Ordinary:
		return refOrdinaryPredictVar(ip, xs, ys, q)
	case *Simple:
		v, err := refSimplePredict(ip, xs, ys, q)
		return v, 0, err
	}
	panic(fmt.Sprintf("no reference for %T", ip))
}

// The tests below pin that a prediction depends on its support and
// query alone, not on what the same interpolator value or the pooled
// scratch answered before: pooled buffers keep the previous system's
// size, factor kind and contents. Each walks one interpolator value
// through repeated, grown and shrunk supports and checks every answer
// (and the ordinary variance) bit for bit against the reference
// implementation, which builds every system in fresh buffers.

// support4 is a small 2-D support with a smooth field.
func support4() ([][]float64, []float64) {
	xs := [][]float64{{0, 0}, {0, 4}, {4, 0}, {4, 4}}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x[0] + 2*x[1]
	}
	return xs, ys
}

// historyModels are the variogram models the history tests sweep:
// three bounded families, an unbounded power model and nil, the
// per-support fit.
func historyModels() []struct {
	name  string
	model variogram.Model
} {
	return []struct {
		name  string
		model variogram.Model
	}{
		{"spherical", &variogram.SphericalModel{Sill: 30, Range: 8, Nugget: 0.1}},
		{"exponential", &variogram.ExponentialModel{Sill: 25, Range: 5, Nugget: 0.05}},
		{"gaussian", &variogram.GaussianModel{Sill: 20, Range: 6, Nugget: 0.2}},
		{"power", &variogram.PowerModel{Alpha: 1, Beta: 1.5}},
		{"fitted", nil},
	}
}

// matchReference fails t unless ip answers q on (xs, ys) exactly as the
// reference implementation does: same error-ness, value and ordinary
// variance bit for bit. It returns ip's value.
func matchReference(t *testing.T, what string, ip Interpolator, xs [][]float64, ys []float64, q []float64) float64 {
	t.Helper()
	got, gotVar, err := predictVar(ip, xs, ys, q)
	want, wantVar, werr := refPredictVar(ip, xs, ys, q)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: error %v, reference error %v", what, err, werr)
	}
	if !bitEqual(got, want) || !bitEqual(gotVar, wantVar) {
		t.Fatalf("%s: (%v, %v), reference (%v, %v)", what, got, gotVar, want, wantVar)
	}
	return got
}

// TestCachedOrdinaryMatchesUncached has one Ordinary answer repeated
// queries on a shared support; every answer must match the reference.
func TestCachedOrdinaryMatchesUncached(t *testing.T) {
	xs, ys := support4()
	o := &Ordinary{}
	for _, q := range [][]float64{{1, 1}, {2, 3}, {3.5, 0.5}, {1, 1}, {2, 3}} {
		matchReference(t, fmt.Sprintf("query %v", q), o, xs, ys, q)
	}
}

// TestCachedSimpleMatchesUncached does the same for simple kriging and
// checks that a bounded model's positive definite covariance system is
// factored by Cholesky.
func TestCachedSimpleMatchesUncached(t *testing.T) {
	xs, ys := support4()
	s := &Simple{Model: &variogram.ExponentialModel{Sill: 40, Range: 3}}
	for _, q := range [][]float64{{1, 1}, {2, 2}, {1, 1}} {
		matchReference(t, fmt.Sprintf("query %v", q), s, xs, ys, q)
	}
	sys, err := s.system(new(predictScratch), xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if sys.chol == nil {
		t.Error("simple-kriging covariance system did not take the Cholesky path")
	}
}

// TestGrownSupportMatchesFresh walks one interpolator value, for
// ordinary and simple kriging under every history model, through a
// support grown one trailing point at a time from 4 to 52 points (the
// sequential-infill shape) and shrunk back to 4.
func TestGrownSupportMatchesFresh(t *testing.T) {
	const first, last = 4, 52
	kinds := []struct {
		name string
		mk   func(variogram.Model) Interpolator
	}{
		{"ordinary", func(m variogram.Model) Interpolator { return &Ordinary{Model: m} }},
		{"simple", func(m variogram.Model) Interpolator { return &Simple{Model: m} }},
	}
	xs, ys := drawSupport(rng.New(31), last, 3)
	q := []float64{5.5, 6.5, 7.5}
	for _, kind := range kinds {
		for _, m := range historyModels() {
			t.Run(kind.name+"/"+m.name, func(t *testing.T) {
				ip := kind.mk(m.model)
				for n := first; n <= last; n++ {
					matchReference(t, fmt.Sprintf("grown n=%d", n), ip, xs[:n], ys[:n], q)
				}
				for n := last; n >= first; n-- {
					matchReference(t, fmt.Sprintf("shrunk n=%d", n), ip, xs[:n], ys[:n], q)
				}
			})
		}
	}
}

// growthTrials predicts, with one interpolator value per model, on 100
// seeded supports: each on a base support, on the base grown by one to
// four trailing points, and on the grown support again.
func growthTrials(t *testing.T, seed uint64, mk func(variogram.Model) Interpolator) {
	const trials = 100
	for _, m := range historyModels() {
		t.Run(m.name, func(t *testing.T) {
			ip := mk(m.model)
			r := rng.NewNamed(seed, m.name)
			for trial := 0; trial < trials; trial++ {
				n := 6 + r.Intn(18)
				grow := 1 + r.Intn(4)
				dim := 2 + r.Intn(3)
				xs, ys := drawSupport(r, n+grow, dim)
				q := make([]float64, dim)
				for i := range q {
					q[i] = r.Float64() * 14
				}
				matchReference(t, fmt.Sprintf("trial %d base n=%d", trial, n), ip, xs[:n], ys[:n], q)
				matchReference(t, fmt.Sprintf("trial %d grown n=%d", trial, n+grow), ip, xs, ys, q)
				matchReference(t, fmt.Sprintf("trial %d repeated n=%d", trial, n+grow), ip, xs, ys, q)
			}
		})
	}
}

// TestIncrementalOrdinaryMatchesFull runs growthTrials for ordinary
// kriging.
func TestIncrementalOrdinaryMatchesFull(t *testing.T) {
	growthTrials(t, 3, func(m variogram.Model) Interpolator { return &Ordinary{Model: m} })
}

// TestIncrementalSimpleMatchesFull runs growthTrials for simple
// kriging.
func TestIncrementalSimpleMatchesFull(t *testing.T) {
	growthTrials(t, 5, func(m variogram.Model) Interpolator { return &Simple{Model: m} })
}

// TestIncrementalGrowthChain walks a long sequential-infill chain, one
// appended point per round and every round predicted, with a fixed
// bounded model and another support draw than TestGrownSupportMatchesFresh.
func TestIncrementalGrowthChain(t *testing.T) {
	const rounds = 48
	xs, ys := drawSupport(rng.New(11), 4+rounds, 3)
	o := &Ordinary{Model: &variogram.ExponentialModel{Sill: 30, Range: 6, Nugget: 0.1}}
	q := []float64{5.5, 6.5, 7.5}
	for n := 4; n <= 4+rounds; n++ {
		matchReference(t, fmt.Sprintf("n=%d", n), o, xs[:n], ys[:n], q)
	}
}

// TestIncrementalRequiresFixedModel covers growth under the per-support
// fitted model: the refit changes every matrix entry, and the grown
// support must still be answered exactly like the reference.
func TestIncrementalRequiresFixedModel(t *testing.T) {
	xs, ys := drawSupport(rng.New(13), 12, 3)
	o := &Ordinary{} // Model nil: fitted per support
	q := []float64{4.5, 5.5, 3.5}
	matchReference(t, "base", o, xs[:10], ys[:10], q)
	matchReference(t, "grown", o, xs, ys, q)
}

// TestIncrementalUnboundedSimpleRefactors covers simple kriging with an
// unbounded model, whose sill depends on the support separations, so a
// grown support changes every covariance entry.
func TestIncrementalUnboundedSimpleRefactors(t *testing.T) {
	xs, ys := drawSupport(rng.New(17), 12, 3)
	s := &Simple{Model: &variogram.PowerModel{Alpha: 1, Beta: 1.5}}
	q := []float64{4.5, 5.5, 3.5}
	matchReference(t, "base", s, xs[:10], ys[:10], q)
	matchReference(t, "grown", s, xs, ys, q)
}

// TestCacheDistinguishesSupports checks that changing a support value
// between two predictions at one query changes the answer: nothing of
// the first support's system may leak into the second.
func TestCacheDistinguishesSupports(t *testing.T) {
	o := &Ordinary{}
	xs, ys := support4()
	matchReference(t, "first query", o, xs, ys, []float64{1, 1})
	ys2 := append([]float64(nil), ys...)
	ys2[0] += 5
	v1 := matchReference(t, "original values", o, xs, ys, []float64{2, 2})
	v2 := matchReference(t, "changed values", o, xs, ys2, []float64{2, 2})
	if v1 == v2 {
		t.Error("different support values produced the same prediction")
	}
}

// TestConcurrentPredictMatchesSequential has 16 goroutines predict, each
// in its own order, over supports of 2 to 10 points on a 23-variable
// lattice with four interpolator configurations, so the pooled scratch
// behind each call grows and shrinks between systems of different sizes
// and factor kinds. Every answer must equal the sequential one bit for
// bit. CI runs it under -race.
func TestConcurrentPredictMatchesSequential(t *testing.T) {
	type job struct {
		ip     Interpolator
		xs     [][]float64
		ys     []float64
		q      []float64
		want   float64
		wantOK bool
	}
	interps := []Interpolator{
		&Ordinary{},
		&Ordinary{PowerBeta: 1.8},
		&Simple{Model: &variogram.ExponentialModel{Sill: 30, Range: 6, Nugget: 0.1}},
		&Universal{},
	}
	r := rng.New(41)
	var jobs []job
	for n := 2; n <= 10; n++ {
		for rep := 0; rep < 3; rep++ {
			xs, ys := drawSupport(r, n, 23)
			q := make([]float64, 23)
			for i := range q {
				q[i] = float64(r.IntRange(0, 14))
			}
			for _, ip := range interps {
				v, err := ip.Predict(xs, ys, q)
				jobs = append(jobs, job{ip, xs, ys, q, v, err == nil})
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, i := range rng.New(uint64(100 + g)).Perm(len(jobs)) {
				j := jobs[i]
				v, err := j.ip.Predict(j.xs, j.ys, j.q)
				if (err == nil) != j.wantOK || !bitEqual(v, j.want) {
					t.Errorf("goroutine %d job %d (%s, n=%d): %v (err %v), sequential %v", g, i, j.ip.Name(), len(j.xs), v, err, j.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

package kriging

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/rng"
	"repro/internal/variogram"
)

// batchModels returns the three fixed variogram families the property
// wall crosses with every interpolator. Fresh instances per call so
// cached systems never leak across interpolator configurations.
func batchModels() []variogram.Model {
	return []variogram.Model{
		&variogram.LinearModel{Slope: 1.3, Nugget: 0.05},
		&variogram.SphericalModel{Sill: 40, Range: 9, Nugget: 0.1},
		&variogram.ExponentialModel{Sill: 25, Range: 6, Nugget: 0.1},
	}
}

// bitEqual treats two floats as equal when their bit patterns match
// (NaN == NaN for this purpose, which float comparison would miss).
func bitEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// The single-query reference implementation of Eq. 10: one right-hand
// side assembled through Model.Gamma and the dist closure, one
// single-column solve, scalar output dots. Production code answers every
// query through the blocked batch solvers (Predict is their K=1 case),
// so the property wall checks them against this independent oracle.

// refSolve solves the factored system for one right-hand side through
// the single-column solvers.
func refSolve(sys *factored, dst, rhs []float64) error {
	if sys.chol != nil {
		return sys.chol.SolveInto(dst, rhs)
	}
	return sys.lu.SolveInto(dst, rhs)
}

// refOrdinaryPredictVar is the reference ordinary-kriging value and
// variance at x.
func refOrdinaryPredictVar(o *Ordinary, xs [][]float64, ys []float64, x []float64) (value, variance float64, err error) {
	n := len(xs)
	if n == 0 {
		return 0, 0, ErrNoSupport
	}
	if len(ys) != n {
		return 0, 0, fmt.Errorf("kriging: %d coordinates but %d values", n, len(ys))
	}
	if n == 1 {
		return ys[0], 0, nil
	}
	sys, err := o.cache.system(o, xs, ys)
	if err != nil {
		return 0, 0, err
	}
	dist := o.dist()
	rhs := make([]float64, n+1)
	for k := 0; k < n; k++ {
		rhs[k] = sys.model.Gamma(dist(x, xs[k]))
	}
	rhs[n] = 1
	w := make([]float64, n+1)
	if err := refSolve(sys, w, rhs); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrDegenerate, err)
	}
	val := linalg.Dot(w[:n], ys)
	varEst := linalg.Dot(w[:n], rhs[:n])
	varEst += w[n]
	if varEst < 0 {
		varEst = 0
	}
	if math.IsNaN(val) || math.IsInf(val, 0) {
		return 0, 0, ErrDegenerate
	}
	return val, varEst, nil
}

// refSimplePredict is the reference simple-kriging value at x.
func refSimplePredict(s *Simple, xs [][]float64, ys []float64, x []float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, ErrNoSupport
	}
	if len(ys) != n {
		return 0, fmt.Errorf("kriging: %d coordinates but %d values", n, len(ys))
	}
	mean := s.Mean
	if !s.KnownMean {
		var sum float64
		for _, y := range ys {
			sum += y
		}
		mean = sum / float64(n)
	}
	if n == 1 {
		return ys[0], nil
	}
	sys, err := s.cache.system(s, xs, ys)
	if err != nil {
		return 0, err
	}
	if sys.sill == 0 {
		return mean, nil
	}
	dist := s.dist()
	rhs := make([]float64, n)
	for k := 0; k < n; k++ {
		cv := sys.sill - sys.model.Gamma(dist(x, xs[k]))
		if cv < 0 {
			cv = 0
		}
		rhs[k] = cv
	}
	w := make([]float64, n)
	if err := refSolve(sys, w, rhs); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrDegenerate, err)
	}
	val := centeredDot(mean, w, ys)
	if math.IsNaN(val) || math.IsInf(val, 0) {
		return 0, ErrDegenerate
	}
	return val, nil
}

// refUniversalPredict is the reference universal-kriging value at x,
// assembling and solving the drift system for this one query.
func refUniversalPredict(u *Universal, xs [][]float64, ys []float64, x []float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, ErrNoSupport
	}
	if len(ys) != n {
		return 0, fmt.Errorf("kriging: %d coordinates but %d values", n, len(ys))
	}
	if n == 1 {
		return ys[0], nil
	}
	dist := u.dist()
	model := u.Model
	if model == nil {
		var err error
		if u.PowerBeta != 0 {
			model, err = variogram.FitPower(variogram.CloudFromSamples(xs, ys, dist), u.PowerBeta, u.Nugget)
		} else {
			model, err = variogram.FitSamples(u.FitKind, xs, ys, dist, u.Nugget)
		}
		if err != nil {
			return 0, err
		}
	}
	dims := driftDims(xs, n-2)
	size := n + 1 + len(dims)
	g := linalg.NewMatrix(size, size)
	var scale float64
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			gv := model.Gamma(dist(xs[j], xs[k]))
			g.Set(j, k, gv)
			g.Set(k, j, gv)
			if gv > scale {
				scale = gv
			}
		}
	}
	jitter := 1e-12 * (scale + 1)
	for j := 0; j < n; j++ {
		g.Set(j, j, u.Nugget+jitter)
		g.Set(j, n, 1)
		g.Set(n, j, 1)
		for i, d := range dims {
			g.Set(j, n+1+i, xs[j][d])
			g.Set(n+1+i, j, xs[j][d])
		}
	}
	rhs := make([]float64, size)
	for k := 0; k < n; k++ {
		rhs[k] = model.Gamma(dist(x, xs[k]))
	}
	rhs[n] = 1
	for i, d := range dims {
		rhs[n+1+i] = x[d]
	}
	w, err := linalg.Solve(g, rhs)
	if err != nil {
		v, _, err := refOrdinaryPredictVar(&Ordinary{Dist: u.Dist, Model: model, Nugget: u.Nugget}, xs, ys, x)
		return v, err
	}
	val := linalg.Dot(w[:n], ys)
	if math.IsNaN(val) || math.IsInf(val, 0) {
		return 0, ErrDegenerate
	}
	return val, nil
}

// TestBatchMatchesSequentialPropertyWall is the batch-prediction
// property wall: across 100 seeded supports × {ordinary, simple,
// universal} × 3 variogram models × K ∈ {1, 2, 7, 64}, a blocked
// PredictBatch (and PredictVarBatch for ordinary) must reproduce K
// calls of the single-query reference implementation BIT FOR BIT — stronger than the
// 1e-12 the acceptance criteria ask for. Queries deliberately include
// exact support coincidences so the γ(h<=0) nugget branch is crossed.
func TestBatchMatchesSequentialPropertyWall(t *testing.T) {
	r := rng.New(701)
	ks := []int{1, 2, 7, 64}
	const maxK = 64
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(19)
		dim := 2 + r.Intn(3)
		xs, ys := drawSupport(r, n, dim)
		queries := make([][]float64, maxK)
		for j := range queries {
			if j%7 == 3 {
				// Land exactly on a support point: h == 0 branch.
				queries[j] = append([]float64(nil), xs[r.Intn(n)]...)
			} else {
				q := make([]float64, dim)
				for i := range q {
					q[i] = float64(r.IntRange(0, 14)) + r.NormScaled(0, 0.25)
				}
				queries[j] = q
			}
		}
		for mi, model := range batchModels() {
			interps := []struct {
				name  string
				batch func(queries [][]float64, out []float64) error
				seq   func(q []float64) (float64, error)
			}{}
			o := &Ordinary{Model: model}
			s := &Simple{Model: model}
			u := &Universal{Model: model}
			interps = append(interps,
				struct {
					name  string
					batch func(queries [][]float64, out []float64) error
					seq   func(q []float64) (float64, error)
				}{"ordinary", func(q [][]float64, out []float64) error { return o.PredictBatch(xs, ys, q, out) },
					func(q []float64) (float64, error) { v, _, err := refOrdinaryPredictVar(o, xs, ys, q); return v, err }},
				struct {
					name  string
					batch func(queries [][]float64, out []float64) error
					seq   func(q []float64) (float64, error)
				}{"simple", func(q [][]float64, out []float64) error { return s.PredictBatch(xs, ys, q, out) },
					func(q []float64) (float64, error) { return refSimplePredict(s, xs, ys, q) }},
				struct {
					name  string
					batch func(queries [][]float64, out []float64) error
					seq   func(q []float64) (float64, error)
				}{"universal", func(q [][]float64, out []float64) error { return u.PredictBatch(xs, ys, q, out) },
					func(q []float64) (float64, error) { return refUniversalPredict(u, xs, ys, q) }},
			)
			for _, ip := range interps {
				for _, k := range ks {
					out := make([]float64, k)
					if err := ip.batch(queries[:k], out); err != nil {
						// A degenerate batch is acceptable only if the
						// reference degenerates too.
						if _, serr := ip.seq(queries[0]); serr == nil {
							t.Fatalf("trial %d %s model %d K=%d: batch failed (%v) but the reference succeeds", trial, ip.name, mi, k, err)
						}
						continue
					}
					for j := 0; j < k; j++ {
						want, err := ip.seq(queries[j])
						if err != nil {
							t.Fatalf("trial %d %s model %d K=%d q%d: reference error %v after batch success", trial, ip.name, mi, k, j, err)
						}
						if !bitEqual(out[j], want) {
							t.Fatalf("trial %d %s model %d K=%d q%d: batch %v != reference %v (diff %g)",
								trial, ip.name, mi, k, j, out[j], want, out[j]-want)
						}
					}
				}
			}
			// Ordinary also carries the variance through the batch.
			for _, k := range ks {
				outV := make([]float64, k)
				outVar := make([]float64, k)
				if err := o.PredictVarBatch(xs, ys, queries[:k], outV, outVar); err != nil {
					continue
				}
				for j := 0; j < k; j++ {
					wv, wvar, err := refOrdinaryPredictVar(o, xs, ys, queries[j])
					if err != nil {
						t.Fatalf("trial %d model %d K=%d q%d: reference PredictVar: %v", trial, mi, k, j, err)
					}
					if !bitEqual(outV[j], wv) || !bitEqual(outVar[j], wvar) {
						t.Fatalf("trial %d model %d K=%d q%d: batch (%v, %v) != reference (%v, %v)",
							trial, mi, k, j, outV[j], outVar[j], wv, wvar)
					}
				}
			}
		}
	}
}

// TestBatchShapeAndEdgeCases covers the error surface: mismatched
// output length, empty support with pending queries, zero queries,
// single-point support.
func TestBatchShapeAndEdgeCases(t *testing.T) {
	r := rng.New(704)
	xs, ys := drawSupport(r, 5, 2)
	o := &Ordinary{Model: &variogram.LinearModel{Slope: 1}}
	queries := [][]float64{{1, 2}, {3, 4}}
	if err := o.PredictBatch(xs, ys, queries, make([]float64, 1)); err == nil {
		t.Fatal("short output accepted")
	}
	if err := o.PredictBatch(xs, ys[:3], queries, make([]float64, 2)); err == nil {
		t.Fatal("mismatched ys accepted")
	}
	if err := o.PredictBatch(nil, nil, queries, make([]float64, 2)); !errors.Is(err, ErrNoSupport) {
		t.Fatalf("empty support: %v", err)
	}
	if err := o.PredictBatch(xs, ys, nil, nil); err != nil {
		t.Fatalf("zero queries: %v", err)
	}
	out := make([]float64, 2)
	if err := o.PredictBatch(xs[:1], ys[:1], queries, out); err != nil {
		t.Fatalf("single support: %v", err)
	}
	if out[0] != ys[0] || out[1] != ys[0] {
		t.Fatalf("single support prediction %v, want %v", out, ys[0])
	}
	outVar := make([]float64, 2)
	if err := o.PredictVarBatch(xs[:1], ys[:1], queries, out, outVar); err != nil || outVar[0] != 0 {
		t.Fatalf("single support var: %v %v", err, outVar)
	}
}

// TestSimpleBatchFlatField: a constant-valued support has sill 0; the
// batch path must answer the mean for every query like the reference
// path does, without touching a factor.
func TestSimpleBatchFlatField(t *testing.T) {
	xs := [][]float64{{0, 0}, {1, 0}, {0, 1}, {2, 2}}
	ys := []float64{5, 5, 5, 5}
	s := &Simple{FitKind: variogram.Linear}
	queries := [][]float64{{0.5, 0.5}, {3, 3}, {0, 0}}
	out := make([]float64, 3)
	if err := s.PredictBatch(xs, ys, queries, out); err != nil {
		t.Fatal(err)
	}
	for j, q := range queries {
		want, err := refSimplePredict(s, xs, ys, q)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual(out[j], want) {
			t.Fatalf("q%d: %v != %v", j, out[j], want)
		}
		if out[j] != 5 {
			t.Fatalf("q%d: flat field predicted %v, want 5", j, out[j])
		}
	}
}

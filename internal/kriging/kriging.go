package kriging

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/linalg"
	"repro/internal/variogram"
)

// ErrNoSupport is returned when an interpolation is requested with no
// support points.
var ErrNoSupport = errors.New("kriging: no support points")

// ErrDegenerate is returned when the kriging system cannot be solved
// (singular Γ matrix even after regularisation).
var ErrDegenerate = errors.New("kriging: degenerate system")

// Interpolator predicts the value of a random field at a query point from
// known (coordinate, value) samples. Implementations: *Ordinary,
// *Simple, *IDW, *Nearest.
type Interpolator interface {
	// Predict returns the interpolated value at x given support
	// coordinates xs and values ys.
	Predict(xs [][]float64, ys []float64, x []float64) (float64, error)
	// Name returns a short identifier for reports.
	Name() string
}

// Distance is the separation measure used inside the variogram and the
// interpolators. The paper uses the L1 norm on the configuration lattice.
type Distance func(a, b []float64) float64

// L1Distance is the Manhattan distance, the paper's choice.
func L1Distance(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += math.Abs(v - b[i])
	}
	return s
}

// L2Distance is the Euclidean distance.
func L2Distance(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Ordinary is the ordinary-kriging interpolator of Eqs. 7-10. For each
// prediction it fits (or reuses) a semivariogram model over the support,
// assembles the augmented matrix Γ of Eq. 9 and the vector γ_i of Eq. 8,
// and returns λ̂(e_i) = γ_i · Γ⁻¹ · λ (Eq. 10), solved by LU rather than
// an explicit inverse.
type Ordinary struct {
	// Dist is the separation measure; nil means L1 (the paper's).
	Dist Distance
	// Model, when non-nil, is used as the semivariogram for every
	// prediction ("the identification of the semi-variogram has to be
	// done once for a particular metric and application"). When nil, a
	// model of kind FitKind is fitted to the support of each query.
	Model variogram.Model
	// FitKind selects the family fitted per query when Model is nil.
	// The zero value is variogram.Power, the Numerical Recipes model.
	FitKind variogram.Kind
	// PowerBeta overrides the power-law exponent β used when FitKind is
	// variogram.Power; zero selects variogram.DefaultBeta. Values close
	// to 2 make the predictor extend linear trends when extrapolating
	// beyond the support hull (the situation of the min+1 phase-1
	// frontier); see the variogram ablation bench.
	PowerBeta float64
	// Nugget is added on the diagonal of Γ (and to the fitted model) to
	// regularise nearly-coincident supports. Zero selects a tiny
	// scale-relative default.
	Nugget float64
	// CacheSize bounds the factored-system cache: repeated predictions
	// over the same support (the min+1 competition, leave-one-out cross
	// validation, batch evaluation) reuse the fitted variogram and the
	// LU factors of Γ, dropping the per-query cost from O(n³) to O(n²).
	// Zero selects DefaultCacheSize; a negative value disables caching.
	// The cached results are bit-identical to the uncached path. The
	// cache keys on the support alone, so configuration fields (Dist,
	// Model, FitKind, PowerBeta, Nugget, CacheSize) must not be mutated
	// after the first prediction — build a fresh interpolator per
	// configuration instead.
	CacheSize int

	cacheOnce sync.Once
	cache     *systemCache
}

// Name implements Interpolator.
func (o *Ordinary) Name() string { return "ordinary-kriging" }

func (o *Ordinary) dist() Distance {
	if o.Dist != nil {
		return o.Dist
	}
	return L1Distance
}

func (o *Ordinary) model(xs [][]float64, ys []float64) (variogram.Model, error) {
	if o.Model != nil {
		return o.Model, nil
	}
	if o.FitKind == variogram.Power && o.PowerBeta != 0 {
		return variogram.FitPower(variogram.CloudFromSamples(xs, ys, o.dist()), o.PowerBeta, o.Nugget)
	}
	m, err := variogram.FitSamples(o.FitKind, xs, ys, o.dist(), o.Nugget)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Predict implements Interpolator.
func (o *Ordinary) Predict(xs [][]float64, ys []float64, x []float64) (float64, error) {
	v, _, err := o.PredictVar(xs, ys, x)
	return v, err
}

// PredictVar returns both the interpolated value and the ordinary-kriging
// variance estimate Var[λ̂ - λ] = Σ μ_k·γ_ik + m (the optimality objective
// of Eq. 5 at its minimum), useful as a confidence signal. It is the K=1
// case of PredictVarBatch, the one implementation of Eq. 10.
func (o *Ordinary) PredictVar(xs [][]float64, ys []float64, x []float64) (value, variance float64, err error) {
	q := [1][]float64{x}
	var v, ve [1]float64
	err = o.PredictVarBatch(xs, ys, q[:], v[:], ve[:])
	return v[0], ve[0], err
}

// system returns the factored Eq. 9 saddle system for a support set,
// reusing a cached factorisation when the same support was seen recently.
// When the interpolator runs with a fixed Model and the requested support
// is a cached support plus a few appended points — the sequential-infill
// shape — the cached factor is grown by bordered updates in O(n²) per
// point instead of refactorising in O(n³); a failed border health check
// falls back to the full factorisation. (A nil Model is refitted per
// support, which invalidates every matrix entry, so only fixed-model
// systems are extendable.)
func (o *Ordinary) system(xs [][]float64, ys []float64) (*factored, error) {
	cache := resolveCache(&o.cacheOnce, &o.cache, o.CacheSize)
	var key uint64
	if cache != nil {
		key = supportFingerprint(xs, ys)
		if sys, ok := cache.get(key, xs, ys); ok {
			return sys, nil
		}
		if o.Model != nil {
			if base, m, ok := cache.getPrefix(xs, ys, maxIncrementalAppend); ok {
				if sys, err := o.extendSystem(base, xs, m); err == nil {
					cache.incrementalHits.Add(1)
					cache.add(key, xs, ys, sys)
					return sys, nil
				}
			}
		}
	}
	model, err := o.model(xs, ys)
	if err != nil {
		return nil, err
	}
	n := len(xs)
	dist := o.dist()
	// Assemble the (n+1)×(n+1) system of Eq. 9.
	g := linalg.NewMatrix(n+1, n+1)
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
	// Lagrange row/column of ones, corner zero (Eq. 9).
	for j := 0; j < n; j++ {
		g.Set(j, n, 1)
		g.Set(n, j, 1)
	}
	// Diagonal: γ(0) = nugget; add a tiny jitter relative to the matrix
	// scale so that duplicated supports do not make Γ singular.
	nug := o.Nugget
	jitter := 1e-12 * (scale + 1)
	for j := 0; j < n; j++ {
		g.Set(j, j, nug+jitter)
	}
	// The saddle structure of Eq. 9 (zero Lagrange corner) is symmetric
	// indefinite, so it takes the pivoted-LU path; the positive definite
	// covariance systems of simple kriging go through Cholesky instead.
	f, err := linalg.Factorize(g)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDegenerate, err)
	}
	sys := &factored{model: model, lu: f, n: n, base: n, scale: scale}
	if cache != nil {
		cache.add(key, xs, ys, sys)
	}
	return sys, nil
}

// extendSystem grows the cached saddle factor of xs[:m] to cover all of
// xs by appending one bordered row/column per new support point. The new
// rows land after the Lagrange row in factor ordering (solves re-permute
// through factored.logicalIndex), and each border passes the linalg
// pivot health check or the whole extension is abandoned in favour of a
// full refactorisation. The appended diagonals follow the same
// jitter-from-scale rule as assembly; because the pre-existing diagonals
// keep the jitter of THEIR assembly scale, an extended system tracks a
// from-scratch factorisation to ~1e-12 relative in the matrix entries —
// well inside the documented 1e-9 prediction tolerance (asserted by
// TestIncrementalOrdinaryMatchesFull).
func (o *Ordinary) extendSystem(base *factored, xs [][]float64, m int) (*factored, error) {
	n := len(xs)
	if base.lu == nil || base.extended()+(n-m) > maxExtendChain {
		return nil, errNotExtendable
	}
	dist := o.dist()
	scale := base.scale
	lu := base.lu
	bb := base.base
	for j := m; j < n; j++ {
		// The factor currently holds j support rows plus the Lagrange row.
		col := make([]float64, j+1)
		for pos := 0; pos <= j; pos++ {
			if pos == bb {
				col[pos] = 1 // Lagrange row: unbiasedness constraint
				continue
			}
			si := pos
			if pos > bb {
				si = pos - 1
			}
			g := base.model.Gamma(dist(xs[j], xs[si]))
			col[pos] = g
			if g > scale {
				scale = g
			}
		}
		diag := o.Nugget + 1e-12*(scale+1)
		next, err := lu.Extend(col, col, diag)
		if err != nil {
			return nil, err
		}
		lu = next
	}
	return &factored{model: base.model, lu: lu, n: n, base: bb, scale: scale}, nil
}

// Weights exposes the kriging weights μ_k (and the Lagrange multiplier as
// the final element) for the given query; primarily for tests asserting
// the unbiasedness constraint Σ μ_k = 1.
func (o *Ordinary) Weights(xs [][]float64, ys []float64, x []float64) ([]float64, error) {
	n := len(xs)
	if n == 0 {
		return nil, ErrNoSupport
	}
	if n == 1 {
		return []float64{1, 0}, nil
	}
	sys, err := o.system(xs, ys)
	if err != nil {
		return nil, err
	}
	dist := o.dist()
	s := predictPool.Get().(*predictScratch)
	defer predictPool.Put(s)
	rhs := growFloats(&s.rhs, n+1)
	for k := 0; k < n; k++ {
		rhs[k] = sys.model.Gamma(dist(x, xs[k]))
	}
	rhs[n] = 1
	out := make([]float64, n+1)
	if err := sys.solveBatchInto(out, rhs, n+1, 1, s); err != nil {
		return nil, err
	}
	return out, nil
}

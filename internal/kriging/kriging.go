package kriging

import (
	"errors"
	"fmt"
	"math"

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
//
// Repeated predictions over the same support (the min+1 competition,
// leave-one-out cross validation, batch evaluation) reuse the fitted
// variogram and the LU factors of Γ from a cache of the last
// DefaultCacheSize supports, dropping the per-query cost from O(n³) to
// O(n²) with bit-identical results. The cache keys on the support alone,
// so configuration fields must not be mutated after the first
// prediction — build a fresh interpolator per configuration instead.
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

	cache systemCache
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

// factor fits (or takes) the variogram and factors the Eq. 9 saddle
// system of exactly this support from scratch. Predictions reach it
// through the cache; Universal's degenerate-drift fallback calls it
// directly.
func (o *Ordinary) factor(xs [][]float64, ys []float64) (*factored, error) {
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
	return &factored{model: model, lu: f}, nil
}

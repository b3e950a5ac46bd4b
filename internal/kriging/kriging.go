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
// call it fits (or takes) a semivariogram model over the support,
// assembles the augmented matrix Γ of Eq. 9 and the vector γ_i of Eq. 8,
// and returns λ̂(e_i) = γ_i · Γ⁻¹ · λ (Eq. 10), solved by LU rather than
// an explicit inverse. A batch of queries sharing one support
// (PredictBatch, PredictVarBatch) factors Γ once for all of them.
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
}

// Name implements Interpolator.
func (o *Ordinary) Name() string { return "ordinary-kriging" }

func (o *Ordinary) dist() Distance {
	if o.Dist != nil {
		return o.Dist
	}
	return L1Distance
}

// model returns the semivariogram of the support (xs, ys) when it is not
// the default power fit, which system fuses into the Γ assembly.
func (o *Ordinary) model(xs [][]float64, ys []float64) (variogram.Model, error) {
	if o.Model != nil {
		return o.Model, nil
	}
	return variogram.FitSamples(o.FitKind, xs, ys, o.dist(), o.Nugget)
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

// system fits (or takes) the variogram and factors the Eq. 9 saddle
// system of exactly this support into s's buffers. The support must hold
// at least two points.
func (o *Ordinary) system(s *predictScratch, xs [][]float64, ys []float64) (factored, error) {
	n := len(xs)
	// Assemble the (n+1)×(n+1) system of Eq. 9.
	g := s.matrix(n + 1)
	var model variogram.Model
	var scale float64
	if o.Model == nil && o.FitKind == variogram.Power {
		var err error
		if scale, err = o.assemblePower(s, g, xs, ys); err != nil {
			return factored{}, err
		}
		model = &s.power
	} else {
		var err error
		if model, err = o.model(xs, ys); err != nil {
			return factored{}, err
		}
		scale = assembleGamma(g, model, xs, o.dist())
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
	if err := linalg.Factorize(&s.lu, g); err != nil {
		return factored{}, fmt.Errorf("%w: %v", ErrDegenerate, err)
	}
	return factored{model: model, lu: &s.lu}, nil
}

// assembleGamma fills the off-diagonal support block of g with the
// semivariances between support points and returns the largest of them.
func assembleGamma(g *linalg.Matrix, model variogram.Model, xs [][]float64, dist Distance) float64 {
	var scale float64
	for j := range xs {
		for k := j + 1; k < len(xs); k++ {
			gv := model.Gamma(dist(xs[j], xs[k]))
			g.Set(j, k, gv)
			g.Set(k, j, gv)
			if gv > scale {
				scale = gv
			}
		}
	}
	return scale
}

// assemblePower fits the power model γ(h) = α·h^β (β from PowerBeta) to
// the support into s.power and fills the off-diagonal entries of Γ with
// it, returning the largest of them. It is variogram.FitPower over
// variogram.CloudFromSamples fused into one pair loop: the two
// least-squares sums run in the cloud's pair order under FitPower's
// zero-distance and NaN rules, and each pair's h^β serves both its sums
// and its Γ entry, so Γ is bit-for-bit the unfused one.
func (o *Ordinary) assemblePower(s *predictScratch, g *linalg.Matrix, xs [][]float64, ys []float64) (float64, error) {
	beta := o.PowerBeta
	if beta <= 0 || beta >= 2 {
		beta = variogram.DefaultBeta
	}
	nug := o.Nugget
	dist := o.dist()
	n := len(xs)
	var num, den float64
	used := 0
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			h := dist(xs[j], xs[k])
			// Γ holds h^β until α is known; -1 marks γ(h <= 0) = nugget.
			hb := -1.0
			if !(h <= 0) {
				hb = math.Pow(h, beta)
			}
			g.Set(j, k, hb)
			dv := ys[j] - ys[k]
			sq := dv * dv
			if h <= 0 || math.IsNaN(h) || math.IsNaN(sq) {
				continue
			}
			gamma := sq / 2
			if gamma > nug {
				gamma -= nug
			} else {
				gamma = 0
			}
			num += gamma * hb
			den += hb * hb
			used++
		}
	}
	if used == 0 || den == 0 {
		return 0, variogram.ErrInsufficientData
	}
	alpha := num / den
	if alpha < 0 {
		alpha = 0
	}
	s.power = variogram.PowerModel{Alpha: alpha, Beta: beta, Nugget: nug}
	var scale float64
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			gv := nug
			if hb := g.At(j, k); !(hb < 0) {
				gv = nug + alpha*hb
			}
			g.Set(j, k, gv)
			g.Set(k, j, gv)
			if gv > scale {
				scale = gv
			}
		}
	}
	return scale, nil
}

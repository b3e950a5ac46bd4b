package kriging

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/variogram"
)

// Simple implements simple kriging, the variant named (though not
// detailed) by the paper's Section III-A. Simple kriging assumes a known
// field mean m; the prediction is
//
//	λ̂(x) = m + Σ μ_k·(λ_k - m)
//
// with weights from the covariance system C·μ = c. Covariances are
// derived from the fitted semivariogram via C(h) = sill - γ(h), taking
// the largest semivariance observed across the support separations as the
// sill (query covariances below that ceiling are clamped at zero). The
// support-only sill makes C a function of the support alone, so its
// Cholesky factorisation (with a pivoted-LU fallback for supports that
// defeat the truncated-covariance model) is cached and reused across
// predictions that share a neighbourhood, exactly as for Ordinary —
// configuration fields must not be mutated after the first prediction.
type Simple struct {
	// Dist is the separation measure; nil means L1.
	Dist Distance
	// Model, when non-nil, is the semivariogram used for every query.
	Model variogram.Model
	// FitKind selects the per-query fit family when Model is nil.
	FitKind variogram.Kind
	// Mean is the assumed field mean. When KnownMean is false the
	// support mean is used instead (the pragmatic choice when no prior
	// mean is available).
	Mean      float64
	KnownMean bool
	// Nugget regularises the covariance diagonal.
	Nugget float64

	cache systemCache
}

// Name implements Interpolator.
func (s *Simple) Name() string { return "simple-kriging" }

func (s *Simple) dist() Distance {
	if s.Dist != nil {
		return s.Dist
	}
	return L1Distance
}

// Predict implements Interpolator as the K=1 case of PredictBatch.
func (s *Simple) Predict(xs [][]float64, ys []float64, x []float64) (float64, error) {
	q := [1][]float64{x}
	var v [1]float64
	err := s.PredictBatch(xs, ys, q[:], v[:])
	return v[0], err
}

// factor builds and factors the covariance system C = sill - Γ of
// exactly this support from scratch; predictions reach it through the
// cache.
func (s *Simple) factor(xs [][]float64, ys []float64) (*factored, error) {
	dist := s.dist()
	model := s.Model
	if model == nil {
		m, err := variogram.FitSamples(s.FitKind, xs, ys, dist, s.Nugget)
		if err != nil {
			return nil, err
		}
		model = m
	}
	n := len(xs)
	// Sill: bounded models expose their true plateau, which makes
	// C(h) = sill - γ(h) the genuine (positive definite) covariance of
	// the model; unbounded models (power, linear) fall back to the
	// largest semivariance across the support separations, which keeps
	// every matrix covariance non-negative while letting the system
	// depend on the support alone.
	sill, bounded := modelPlateau(model)
	if !bounded {
		for j := 0; j < n; j++ {
			for k := j + 1; k < n; k++ {
				if g := model.Gamma(dist(xs[j], xs[k])); g > sill {
					sill = g
				}
			}
		}
	}
	sys := &factored{model: model, sill: sill}
	if sill == 0 {
		// Flat field; Predict answers with the mean without solving.
		return sys, nil
	}
	c := linalg.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		c.Set(j, j, sill-model.Gamma(0)+1e-12*sill+s.Nugget)
		for k := j + 1; k < n; k++ {
			cv := sill - model.Gamma(dist(xs[j], xs[k]))
			c.Set(j, k, cv)
			c.Set(k, j, cv)
		}
	}
	// The covariance form is symmetric positive definite, so Cholesky is
	// the natural factorisation; a truncated-sill support can defeat
	// positive definiteness, in which case pivoted LU still solves the
	// (symmetric indefinite) system.
	if chol, err := linalg.FactorizeCholesky(c); err == nil {
		sys.chol = chol
	} else {
		f, err := linalg.Factorize(c)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrDegenerate, err)
		}
		sys.lu = f
	}
	return sys, nil
}

// modelPlateau returns the total plateau (sill + nugget) of a bounded
// semivariogram model, or ok=false for unbounded families.
func modelPlateau(m variogram.Model) (plateau float64, ok bool) {
	switch t := m.(type) {
	case *variogram.SphericalModel:
		return t.Sill + t.Nugget, true
	case *variogram.ExponentialModel:
		return t.Sill + t.Nugget, true
	case *variogram.GaussianModel:
		return t.Sill + t.Nugget, true
	default:
		return 0, false
	}
}

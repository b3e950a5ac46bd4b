package kriging

import "repro/internal/variogram"

// Universal implements universal kriging (kriging with a linear drift):
// the field is modelled as a linear trend m(x) = β₀ + Σ β_j·x_j plus a
// stationary residual, and the kriging system is augmented with one
// unbiasedness constraint per drift term.
//
// Ordinary kriging reverts to a weighted mean outside the support hull,
// which is exactly the situation at the frontier of a min+1 phase-1
// descent; with a linear drift the predictor extends the local trend
// instead. The ablation benches compare the two on the recorded
// trajectories.
//
// Drift terms are included per dimension only when the support actually
// varies in that dimension (otherwise the coefficient is unidentifiable
// and the system singular); with too few supports the predictor degrades
// gracefully to ordinary kriging.
type Universal struct {
	// Dist is the separation measure; nil means L1.
	Dist Distance
	// Model, when non-nil, is used for every prediction.
	Model variogram.Model
	// FitKind selects the per-query fit family when Model is nil.
	FitKind variogram.Kind
	// PowerBeta overrides the power-model exponent (see Ordinary).
	PowerBeta float64
	// Nugget regularises the system diagonal.
	Nugget float64
}

// Name implements Interpolator.
func (u *Universal) Name() string { return "universal-kriging" }

func (u *Universal) dist() Distance {
	if u.Dist != nil {
		return u.Dist
	}
	return L1Distance
}

// driftDims returns the dimensions along which the support varies; only
// those get a drift coefficient.
func driftDims(xs [][]float64, maxTerms int) []int {
	if len(xs) == 0 {
		return nil
	}
	nv := len(xs[0])
	var dims []int
	for d := 0; d < nv; d++ {
		first := xs[0][d]
		for _, x := range xs[1:] {
			if x[d] != first {
				dims = append(dims, d)
				break
			}
		}
		if len(dims) == maxTerms {
			break
		}
	}
	return dims
}

// Predict implements Interpolator as the K=1 case of PredictBatch.
func (u *Universal) Predict(xs [][]float64, ys []float64, x []float64) (float64, error) {
	q := [1][]float64{x}
	var v [1]float64
	err := u.PredictBatch(xs, ys, q[:], v[:])
	return v[0], err
}

// Package variogram implements the semivariogram machinery of the paper's
// Section III-A: the empirical (experimental) semivariogram of Eq. 4 and
// the parametric models it is identified with, including the power-law
// model of the Numerical Recipes kriging implementation the paper cites
// as its reference ([20]).
package variogram

import (
	"errors"
	"fmt"
	"math"
)

// ErrInsufficientData is returned by fitting routines that received too
// few (distance, gamma) observations to identify a model.
var ErrInsufficientData = errors.New("variogram: insufficient data to fit model")

// Model is a fitted semivariogram: Gamma(h) returns the semivariance at
// separation distance h >= 0. Models must satisfy Gamma(0) == Nugget()
// and be non-decreasing for the kriging system to stay well posed on the
// configuration lattices used here.
type Model interface {
	// Gamma evaluates the semivariogram at distance h.
	Gamma(h float64) float64
	// Name returns a short identifier for reports.
	Name() string
	// Params returns the fitted parameters for diagnostics.
	Params() []float64
}

// PowerModel is the Numerical Recipes "powvargram" model
// γ(h) = α·h^β (+ nugget), with β fixed in (0, 2). With β = 1.5 and α
// fitted by least squares it is the default model of this reproduction,
// matching the implementation the paper built on.
type PowerModel struct {
	Alpha  float64
	Beta   float64
	Nugget float64
}

// Gamma implements Model.
func (m *PowerModel) Gamma(h float64) float64 {
	if h <= 0 {
		return m.Nugget
	}
	return m.Nugget + m.Alpha*math.Pow(h, m.Beta)
}

// Name implements Model.
func (m *PowerModel) Name() string { return "power" }

// Params implements Model.
func (m *PowerModel) Params() []float64 { return []float64{m.Alpha, m.Beta, m.Nugget} }

// String renders the model.
func (m *PowerModel) String() string {
	return fmt.Sprintf("power(alpha=%.4g, beta=%.3g, nugget=%.3g)", m.Alpha, m.Beta, m.Nugget)
}

// LinearModel is γ(h) = slope·h (+ nugget).
type LinearModel struct {
	Slope  float64
	Nugget float64
}

// Gamma implements Model.
func (m *LinearModel) Gamma(h float64) float64 {
	if h <= 0 {
		return m.Nugget
	}
	return m.Nugget + m.Slope*h
}

// Name implements Model.
func (m *LinearModel) Name() string { return "linear" }

// Params implements Model.
func (m *LinearModel) Params() []float64 { return []float64{m.Slope, m.Nugget} }

// SphericalModel is the classical bounded model: γ rises as
// sill·(1.5 h/r - 0.5 (h/r)³) up to range r, then stays at the sill.
type SphericalModel struct {
	Sill   float64 // plateau value (excluding nugget)
	Range  float64 // distance at which the plateau is reached
	Nugget float64
}

// Gamma implements Model.
func (m *SphericalModel) Gamma(h float64) float64 {
	if h <= 0 {
		return m.Nugget
	}
	if h >= m.Range {
		return m.Nugget + m.Sill
	}
	r := h / m.Range
	return m.Nugget + m.Sill*(1.5*r-0.5*r*r*r)
}

// Name implements Model.
func (m *SphericalModel) Name() string { return "spherical" }

// Params implements Model.
func (m *SphericalModel) Params() []float64 { return []float64{m.Sill, m.Range, m.Nugget} }

// ExponentialModel is γ(h) = sill·(1 - exp(-h/range)) (+ nugget).
type ExponentialModel struct {
	Sill   float64
	Range  float64
	Nugget float64
}

// Gamma implements Model.
func (m *ExponentialModel) Gamma(h float64) float64 {
	if h <= 0 {
		return m.Nugget
	}
	return m.Nugget + m.Sill*(1-math.Exp(-h/m.Range))
}

// Name implements Model.
func (m *ExponentialModel) Name() string { return "exponential" }

// Params implements Model.
func (m *ExponentialModel) Params() []float64 { return []float64{m.Sill, m.Range, m.Nugget} }

// GaussianModel is γ(h) = sill·(1 - exp(-(h/range)²)) (+ nugget).
type GaussianModel struct {
	Sill   float64
	Range  float64
	Nugget float64
}

// Gamma implements Model.
func (m *GaussianModel) Gamma(h float64) float64 {
	if h <= 0 {
		return m.Nugget
	}
	r := h / m.Range
	return m.Nugget + m.Sill*(1-math.Exp(-r*r))
}

// Name implements Model.
func (m *GaussianModel) Name() string { return "gaussian" }

// Params implements Model.
func (m *GaussianModel) Params() []float64 { return []float64{m.Sill, m.Range, m.Nugget} }

// Kind names a parametric family for selection in configuration and
// ablation benches.
type Kind int

// Supported families.
const (
	Power Kind = iota
	Linear
	Spherical
	Exponential
	Gaussian
)

// String returns the family name.
func (k Kind) String() string {
	switch k {
	case Power:
		return "power"
	case Linear:
		return "linear"
	case Spherical:
		return "spherical"
	case Exponential:
		return "exponential"
	case Gaussian:
		return "gaussian"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

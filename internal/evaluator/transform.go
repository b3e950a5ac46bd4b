package evaluator

import "math"

// The noise-power benchmarks optimise λ = -P, where P spans many orders
// of magnitude across the word-length hypercube (P ≈ c·2^-2w). Kriging a
// field that decays exponentially along every axis with a stationary
// variogram is dominated by the largest support values; interpolating in
// the decibel domain — the domain in which the paper's own Figure 1 draws
// the surface, where the field is close to piecewise-linear in the
// word-lengths — is the standard variance-stabilising choice. These two
// functions are the Transform/Untransform pair that puts the evaluator in
// that domain; the linear domain remains available (and is measured by
// the ablation benches) by leaving the options' Transform nil.

// negPowerFloor guards the log against an exactly-zero noise power (an
// exact fixed-point match), mapping it to an extremely quiet -3000 dB.
const negPowerFloor = 1e-300

// NegPowerToDB maps λ = -P to the accuracy-in-dB domain: -10·log10(P).
// Higher stays better.
func NegPowerToDB(lambda float64) float64 {
	p := -lambda
	if p < negPowerFloor {
		p = negPowerFloor
	}
	return -10 * math.Log10(p)
}

// DBToNegPower is the inverse of NegPowerToDB.
func DBToNegPower(db float64) float64 {
	return -math.Pow(10, -db/10)
}

// Identity is the identity transform, for pairing with ClampProb.
func Identity(x float64) float64 { return x }

// ClampProb clips a prediction into [0, 1]. Paired with Identity as the
// Transform, it kriges a probability-valued metric in its native domain
// while guaranteeing the returned estimate is a valid probability —
// ordinary-kriging weights can be negative, so raw predictions may
// overshoot the [0, 1] range near sharp quality cliffs.
func ClampProb(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

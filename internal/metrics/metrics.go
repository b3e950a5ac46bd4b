// Package metrics implements the quality and accuracy metrics of the
// paper: output noise power and its dB view, the interpolation-error
// measures of Eqs. 11-12, and the summary statistics used when
// reporting Table I.
package metrics

import (
	"errors"
	"math"
)

// ErrEmpty is returned by aggregations over empty inputs.
var ErrEmpty = errors.New("metrics: empty input")

// NoisePower returns the mean squared difference between an approximate
// output sequence and its reference, P = E[(ŷ - y)²]. This is the
// accuracy metric used by the FIR, IIR, FFT and HEVC benchmarks; the
// paper optimises λ = -P (higher is better).
func NoisePower(approx, ref []float64) (float64, error) {
	if len(approx) != len(ref) {
		return 0, errors.New("metrics: sequence length mismatch")
	}
	if len(ref) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for i, v := range approx {
		d := v - ref[i]
		s += d * d
	}
	return s / float64(len(ref)), nil
}

// DB converts a linear power value to decibels (10·log10). Non-positive
// powers map to -Inf, matching the convention that an exact output has
// unbounded accuracy.
func DB(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(p)
}

// EpsilonBits is the paper's Eq. 11: the interpolation error between an
// estimated noise power pHat and the true power p, expressed as an
// equivalent number of bits ε = |log2(pHat / p)|.
//
// When either power is non-positive the notion of "ratio in bits" breaks
// down: the function returns +Inf unless both are non-positive (then 0).
// Kriging weights can be negative, so a slightly negative interpolated
// power is a real occurrence the evaluator has to tolerate.
func EpsilonBits(pHat, p float64) float64 {
	if pHat <= 0 && p <= 0 {
		return 0
	}
	if pHat <= 0 || p <= 0 {
		return math.Inf(1)
	}
	return math.Abs(math.Log2(pHat / p))
}

// EpsilonRelative is the paper's Eq. 12: the relative difference
// |λ̂ - λ| / |λ| between an interpolated metric value and the true one.
// A zero true value with a non-zero estimate yields +Inf.
func EpsilonRelative(lambdaHat, lambda float64) float64 {
	diff := math.Abs(lambdaHat - lambda)
	if lambda == 0 {
		if diff == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return diff / math.Abs(lambda)
}

// Summary accumulates max / mean / count statistics over a stream of
// non-negative error observations, ignoring NaNs (which would otherwise
// poison a whole table row). Infinities are counted separately so the
// harness can report how often the bit-ratio broke down.
type Summary struct {
	n      int
	nInf   int
	sum    float64
	max    float64
	hasAny bool
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	if math.IsInf(v, 0) {
		s.nInf++
		return
	}
	s.n++
	s.sum += v
	if !s.hasAny || v > s.max {
		s.max = v
		s.hasAny = true
	}
}

// InfCount returns the number of infinite observations that were set
// aside.
func (s *Summary) InfCount() int { return s.nInf }

// Max returns the largest finite observation, or 0 when none was added.
func (s *Summary) Max() float64 {
	if !s.hasAny {
		return 0
	}
	return s.max
}

// Mean returns the mean of the finite observations, or 0 when none was
// added.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

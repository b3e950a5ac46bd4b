// Package signal implements the fixed-point signal-processing benchmarks
// of the paper's experimental study: a 64-tap FIR filter (Nv = 2), an
// 8th-order IIR filter realised as four cascaded biquads (Nv = 5) and a
// 64-point radix-2 FFT (Nv = 10), each with a double-precision reference
// datapath and a word-length-configurable fixed-point datapath, plus the
// noise-power simulator harness shared by all of them.
package signal

import (
	"fmt"
	"math"

	"repro/internal/fixed"
	"repro/internal/space"
)

// DesignLowpassFIR returns the impulse response of a linear-phase lowpass
// FIR filter with the given number of taps and normalised cutoff
// (0 < cutoff < 0.5, in cycles/sample), using the Hamming-windowed-sinc
// method. The response is normalised to unit DC gain.
func DesignLowpassFIR(taps int, cutoff float64) ([]float64, error) {
	if taps < 2 {
		return nil, fmt.Errorf("signal: FIR needs at least 2 taps, got %d", taps)
	}
	if cutoff <= 0 || cutoff >= 0.5 {
		return nil, fmt.Errorf("signal: cutoff %v outside (0, 0.5)", cutoff)
	}
	h := make([]float64, taps)
	mid := float64(taps-1) / 2
	var sum float64
	for n := 0; n < taps; n++ {
		t := float64(n) - mid
		var sinc float64
		if t == 0 {
			sinc = 2 * cutoff
		} else {
			sinc = math.Sin(2*math.Pi*cutoff*t) / (math.Pi * t)
		}
		w := 0.54 - 0.46*math.Cos(2*math.Pi*float64(n)/float64(taps-1))
		h[n] = sinc * w
		sum += h[n]
	}
	for n := range h {
		h[n] /= sum
	}
	return h, nil
}

// FIR is the paper's first benchmark: a 64-tap fixed-point FIR filter
// with two optimisation variables, the fractional word-length at the
// output of the multiplier and at the output of the adder (accumulator),
// exactly the two knobs of Figure 1.
type FIR struct {
	Coeffs []float64 // quantised coefficient set used by the fixed datapath
	exact  []float64 // double-precision design used by the reference

	mulNode *fixed.Node
	accNode *fixed.Node
	path    *fixed.Datapath
}

// NewFIR builds the benchmark filter: 64 taps, cutoff 0.12, coefficients
// quantised to 15 fractional bits (a fixed design decision, not an
// optimisation variable — the paper optimises datapath word-lengths).
func NewFIR() (*FIR, error) {
	exact, err := DesignLowpassFIR(64, 0.12)
	if err != nil {
		return nil, err
	}
	coeffs := q15.QuantizeSlice(nil, exact)

	f := &FIR{Coeffs: coeffs, exact: exact, path: fixed.NewDatapath()}
	// Products of |x|<1 by |h|<1 stay below 1 (IntBits 0); the
	// accumulator can exceed 1 transiently, so it gets 2 integer bits.
	f.mulNode = f.path.AddNode("mult_out", 0)
	f.accNode = f.path.AddNode("add_out", 2)
	return f, nil
}

// Nv returns the number of optimisation variables (2).
func (f *FIR) Nv() int { return f.path.Nv() }

// Bounds returns the word-length search box used in the experiments.
func (f *FIR) Bounds() space.Bounds { return space.UniformBounds(f.Nv(), 2, 16) }

// Reference filters x with the exact double-precision design.
func (f *FIR) Reference(x []float64) []float64 {
	y := make([]float64, len(x))
	for n := range x {
		var acc float64
		for k, h := range f.exact {
			if n-k < 0 {
				break
			}
			acc += h * x[n-k]
		}
		y[n] = acc
	}
	return y
}

// Fixed filters x through the word-length-configured datapath:
// cfg[0] is the fractional word-length at the multiplier output, cfg[1]
// at the adder output. Fixed does not mutate shared state, so one FIR
// may be evaluated concurrently under different configurations.
func (f *FIR) Fixed(cfg space.Config, x []float64) ([]float64, error) {
	var q [2]fixed.Quantizer
	if err := f.path.Compile(q[:], cfg); err != nil {
		return nil, err
	}
	mulQ, accQ := &q[0], &q[1]
	// The input itself is quantised at a fixed, generous precision
	// (Q0.15, round-nearest) shared by reference comparisons: the paper's
	// approximation sources are the internal datapath nodes.
	inQ := q15.Compile()
	y := make([]float64, len(x))
	for n := range x {
		var acc float64
		for k, h := range f.Coeffs {
			if n-k < 0 {
				break
			}
			p := mulQ.Quantize(h * inQ.Quantize(x[n-k]))
			acc = accQ.Quantize(acc + p)
		}
		y[n] = acc
	}
	return y, nil
}

// q15 is the fixed Q0.15 round-nearest format of the FIR coefficients
// and of the input register every signal kernel feeds its configurable
// nodes from.
var q15 = fixed.Format{FracBits: 15, Quant: fixed.RoundNearest}

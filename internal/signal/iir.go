package signal

import (
	"fmt"
	"math"

	"repro/internal/fixed"
	"repro/internal/space"
)

// Biquad is one second-order IIR section in direct form I:
//
//	y[n] = b0·x[n] + b1·x[n-1] + b2·x[n-2] - a1·y[n-1] - a2·y[n-2]
type Biquad struct {
	B0, B1, B2 float64
	A1, A2     float64
}

// DesignButterworthLowpass returns the biquad cascade realising a
// Butterworth lowpass of the given (even) order with normalised cutoff
// fc in (0, 0.5), via the standard RBJ bilinear-transform biquads with
// the Butterworth pole Q values Q_k = 1 / (2·sin((2k+1)·π/(2N))).
func DesignButterworthLowpass(order int, fc float64) ([]Biquad, error) {
	if order < 2 || order%2 != 0 {
		return nil, fmt.Errorf("signal: Butterworth cascade needs even order >= 2, got %d", order)
	}
	if fc <= 0 || fc >= 0.5 {
		return nil, fmt.Errorf("signal: cutoff %v outside (0, 0.5)", fc)
	}
	n := order / 2
	w0 := 2 * math.Pi * fc
	cosw, sinw := math.Cos(w0), math.Sin(w0)
	sections := make([]Biquad, n)
	for k := 0; k < n; k++ {
		q := 1 / (2 * math.Sin(float64(2*k+1)*math.Pi/float64(2*order)))
		alpha := sinw / (2 * q)
		a0 := 1 + alpha
		sections[k] = Biquad{
			B0: (1 - cosw) / 2 / a0,
			B1: (1 - cosw) / a0,
			B2: (1 - cosw) / 2 / a0,
			A1: -2 * cosw / a0,
			A2: (1 - alpha) / a0,
		}
	}
	return sections, nil
}

// IIR is the paper's second benchmark: an 8th-order IIR filter realised
// as four cascaded biquads, with Nv = 5 optimisation variables — the
// fractional word-length at the output of each biquad (4) and the shared
// fractional word-length of the internal multiplier outputs (1).
type IIR struct {
	Sections []Biquad
	secOut   []*fixed.Node // per-section output register
	mulOut   *fixed.Node   // shared multiplier-output node
	path     *fixed.Datapath
}

// iirSections is the number of biquads in the benchmark cascade.
const iirSections = 4

// NewIIR builds the benchmark filter: 8th-order Butterworth lowpass,
// cutoff 0.08.
func NewIIR() (*IIR, error) {
	secs, err := DesignButterworthLowpass(2*iirSections, 0.08)
	if err != nil {
		return nil, err
	}
	f := &IIR{Sections: secs, path: fixed.NewDatapath()}
	for i := range secs {
		// Recursive sections can overshoot transiently; 3 integer bits
		// keep saturation out of the noise measurement.
		f.secOut = append(f.secOut, f.path.AddNode(fmt.Sprintf("biquad%d_out", i), 3))
	}
	f.mulOut = f.path.AddNode("mult_out", 3)
	return f, nil
}

// Nv returns the number of optimisation variables (5).
func (f *IIR) Nv() int { return f.path.Nv() }

// Bounds returns the word-length search box used in the experiments.
func (f *IIR) Bounds() space.Bounds { return space.UniformBounds(f.Nv(), 4, 18) }

// Reference filters x with the exact double-precision cascade.
func (f *IIR) Reference(x []float64) []float64 {
	cur := append([]float64(nil), x...)
	for _, s := range f.Sections {
		var x1, x2, y1, y2 float64
		for n, xn := range cur {
			y := s.B0*xn + s.B1*x1 + s.B2*x2 - s.A1*y1 - s.A2*y2
			x2, x1 = x1, xn
			y2, y1 = y1, y
			cur[n] = y
		}
	}
	return cur
}

// Fixed filters x through the word-length-configured cascade: cfg[0..3]
// are the fractional word-lengths of the four biquad output registers,
// cfg[4] the shared multiplier-output word-length.
func (f *IIR) Fixed(cfg space.Config, x []float64) ([]float64, error) {
	var q [iirSections + 1]fixed.Quantizer
	if err := f.path.Compile(q[:], cfg); err != nil {
		return nil, err
	}
	mulQ := &q[len(f.secOut)]
	cur := make([]float64, len(x))
	for i, v := range x {
		cur[i] = q15(v)
	}
	for si, s := range f.Sections {
		outQ := &q[si]
		var x1, x2, y1, y2 float64
		for n, xn := range cur {
			acc := mulQ.Quantize(s.B0 * xn)
			acc += mulQ.Quantize(s.B1 * x1)
			acc += mulQ.Quantize(s.B2 * x2)
			acc -= mulQ.Quantize(s.A1 * y1)
			acc -= mulQ.Quantize(s.A2 * y2)
			y := outQ.Quantize(acc)
			x2, x1 = x1, xn
			y2, y1 = y1, y
			cur[n] = y
		}
	}
	return cur, nil
}

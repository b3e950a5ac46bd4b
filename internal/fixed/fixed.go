// Package fixed emulates signed two's-complement fixed-point arithmetic
// with per-node word-length control, the approximation substrate of the
// paper's word-length-optimisation benchmarks.
//
// A Format describes a signed Q-format number with IntBits bits before the
// binary point (excluding the sign bit) and FracBits after it; the total
// word-length is 1 + IntBits + FracBits. Quantisation to a format can
// truncate (the hardware-cheap choice, used by the benchmarks) or round to
// nearest; overflow can saturate or wrap. The emulation keeps values as
// float64 holding exact multiples of the quantisation step, which is exact
// for the word-lengths used here (<= 32 bits total, well within float64's
// 53-bit mantissa).
//
// A simulator quantises through Quantizers, formats compiled once per
// evaluation: the step 2^-F, its reciprocal 2^F and the range ends are
// exact powers of two built from their IEEE bits, so no node pays for
// math.Exp2. Multiplying by the reciprocal is bit-identical to dividing
// by the step: x·2^F and x/2^-F are the same real number, and IEEE
// arithmetic rounds both operations correctly, so they return the same
// float64 for every x, finite, infinite or subnormal.
package fixed

import (
	"fmt"
	"math"
)

// QuantMode selects the quantisation (rounding) behaviour at a format
// boundary.
type QuantMode int

// Quantisation modes.
const (
	// Truncate drops the bits below the LSB (round toward -inf),
	// matching the cheap hardware truncation the paper's fixed-point
	// benchmarks use.
	Truncate QuantMode = iota
	// RoundNearest rounds to the nearest representable value, ties away
	// from zero.
	RoundNearest
)

// String returns the mode name.
func (m QuantMode) String() string {
	switch m {
	case Truncate:
		return "truncate"
	case RoundNearest:
		return "round-nearest"
	default:
		return fmt.Sprintf("QuantMode(%d)", int(m))
	}
}

// OverflowMode selects the behaviour when a value exceeds the format's
// range.
type OverflowMode int

// Overflow modes.
const (
	// Saturate clips to the closest representable extreme.
	Saturate OverflowMode = iota
	// Wrap performs two's-complement wrap-around.
	Wrap
)

// String returns the mode name.
func (m OverflowMode) String() string {
	switch m {
	case Saturate:
		return "saturate"
	case Wrap:
		return "wrap"
	default:
		return fmt.Sprintf("OverflowMode(%d)", int(m))
	}
}

// Format is a signed fixed-point format.
type Format struct {
	IntBits  int // bits before the binary point, excluding sign
	FracBits int // bits after the binary point
	Quant    QuantMode
	Overflow OverflowMode
}

// NewFormat builds a format with the given integer and fractional bit
// counts, truncation quantisation and saturating overflow.
func NewFormat(intBits, fracBits int) Format {
	return Format{IntBits: intBits, FracBits: fracBits}
}

// Step returns the quantisation step 2^-FracBits.
func (f Format) Step() float64 { return pow2(-f.FracBits) }

// Max returns the largest representable value, 2^IntBits - 2^-FracBits.
func (f Format) Max() float64 { return pow2(f.IntBits) - f.Step() }

// Min returns the smallest (most negative) representable value,
// -2^IntBits.
func (f Format) Min() float64 { return -pow2(f.IntBits) }

// pow2 returns 2^k exactly, for the normal exponents -1022 <= k <= 1023,
// by building its IEEE-754 bits.
func pow2(k int) float64 { return math.Float64frombits(uint64(k+1023) << 52) }

// String renders the format as e.g. "Q3.12(truncate,saturate)".
func (f Format) String() string {
	return fmt.Sprintf("Q%d.%d(%s,%s)", f.IntBits, f.FracBits, f.Quant, f.Overflow)
}

// Quantizer is a Format compiled for repeated quantisation: its step,
// reciprocal step and range ends are precomputed, so Quantize costs a
// multiply, a rounding and two compares. Build one with Format.Compile.
type Quantizer struct {
	quant             QuantMode
	overflow          OverflowMode
	step, inv, lo, hi float64
}

// Compile precomputes the format's step, 1/step and range.
func (f Format) Compile() Quantizer {
	return Quantizer{quant: f.Quant, overflow: f.Overflow, step: f.Step(), inv: pow2(f.FracBits), lo: f.Min(), hi: f.Max()}
}

// Quantize maps x onto the format's grid, applying the quantisation and
// overflow modes. NaN maps to 0 (a fixed-point datapath has no NaN), and
// so does ±Inf under Wrap.
func (f Format) Quantize(x float64) float64 {
	q := f.Compile()
	return q.Quantize(x)
}

// Quantize maps x onto the compiled format's grid, applying the
// quantisation and overflow modes. NaN maps to 0, and so does ±Inf
// under Wrap.
func (q *Quantizer) Quantize(x float64) float64 {
	if x != x {
		return 0
	}
	var v float64
	switch q.quant {
	case Truncate:
		v = math.Floor(x*q.inv) * q.step
	case RoundNearest:
		v = math.Round(x*q.inv) * q.step
	default:
		panic("fixed: unknown quantisation mode")
	}
	if v >= q.lo && v <= q.hi {
		return v
	}
	return q.overflowed(v)
}

// overflowed maps an on-grid v outside [lo, hi] back into the range.
func (q *Quantizer) overflowed(v float64) float64 {
	switch q.overflow {
	case Saturate:
		if v < q.lo {
			return q.lo
		}
		return q.hi
	case Wrap:
		if math.IsInf(v, 0) {
			// ±Inf (an infinite x, or a finite one whose x/step
			// overflowed) has no residue modulo the span: math.Mod gives
			// NaN. Finite values that large are multiples of the span and
			// wrap to exactly 0, so 0 is the answer for both.
			return 0
		}
		// Two's-complement wrap over the range [lo, hi+step).
		span := -2 * q.lo // hi+step - lo
		w := math.Mod(v-q.lo, span)
		if w < 0 {
			w += span
		}
		return q.lo + w
	default:
		panic("fixed: unknown overflow mode")
	}
}

// QuantizeSlice quantises every element of xs into dst (allocated when
// nil) and returns dst.
func (f Format) QuantizeSlice(dst, xs []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(xs))
	}
	q := f.Compile()
	for i, v := range xs {
		dst[i] = q.Quantize(v)
	}
	return dst
}

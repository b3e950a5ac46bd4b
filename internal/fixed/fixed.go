// Package fixed emulates signed two's-complement fixed-point arithmetic
// with per-node word-length control, the approximation substrate of the
// paper's word-length-optimisation benchmarks.
//
// A Format describes a signed Q-format number with IntBits bits before the
// binary point (excluding the sign bit) and FracBits after it; the total
// word-length is 1 + IntBits + FracBits. Quantisation to a format
// truncates (drops the bits below the LSB, rounding toward -inf) and
// saturates on overflow: the hardware-cheap choice every benchmark
// datapath makes, and the only one the package offers. A single mode
// keeps Quantizer.Quantize a multiply, a floor, a multiply and a range
// check, small enough for the compiler to inline into the simulation
// kernels, where it runs in every inner loop. The emulation keeps values
// as float64 holding exact multiples of the quantisation step, which is
// exact while the total word-length stays within float64's 53-bit
// mantissa; Datapath.Compile rejects wider nodes.
//
// A simulator quantises through Quantizers, formats compiled once per
// evaluation: the step 2^-F, its reciprocal 2^F and the range ends are
// exact powers of two built from their IEEE bits, so no node pays for
// math.Exp2. Multiplying by the reciprocal is bit-identical to dividing
// by the step: x·2^F and x/2^-F are the same real number, and IEEE
// arithmetic rounds both operations correctly, so they return the same
// float64 for every x, finite, infinite or subnormal.
package fixed

import "math"

// maxWordLength is the widest total word-length, 1 + IntBits + FracBits,
// that float64 emulates exactly: its mantissa width.
const maxWordLength = 53

// Format is a signed fixed-point format.
type Format struct {
	IntBits  int // bits before the binary point, excluding sign
	FracBits int // bits after the binary point
}

// NewFormat builds a format with the given integer and fractional bit
// counts.
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

// Quantizer is a Format compiled for repeated quantisation: its step,
// reciprocal step and range ends are precomputed, so Quantize costs a
// multiply, a floor, a multiply and two compares. Build one with
// Format.Compile.
type Quantizer struct {
	step, inv, lo, hi float64
}

// Compile precomputes the format's step, 1/step and range. The format's
// word-lengths must be non-negative with 1 + IntBits + FracBits at most
// 53, as Datapath.Compile checks.
func (f Format) Compile() Quantizer {
	return Quantizer{step: f.Step(), inv: pow2(f.FracBits), lo: f.Min(), hi: f.Max()}
}

// Quantize truncates x onto the compiled format's grid and saturates it
// to the format's range. NaN maps to 0: a fixed-point datapath has no
// NaN.
func (q *Quantizer) Quantize(x float64) float64 {
	v := math.Floor(x*q.inv) * q.step
	if v >= q.lo && v <= q.hi {
		return v
	}
	if v < q.lo {
		return q.lo
	}
	if v > q.hi {
		return q.hi
	}
	return 0
}

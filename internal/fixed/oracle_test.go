package fixed

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// The differential oracle: truncate-and-saturate quantisation as it stood
// before formats were compiled, with Step, Min and Max spelled out in
// their math.Exp2 forms and the quantisation as a division by the step.
// Quantizer.Quantize must agree with it bit for bit on every input.

func exp2Step(f Format) float64 { return math.Exp2(-float64(f.FracBits)) }

func exp2Max(f Format) float64 { return math.Exp2(float64(f.IntBits)) - exp2Step(f) }

func exp2Min(f Format) float64 { return -math.Exp2(float64(f.IntBits)) }

func exp2Quantize(f Format, x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	step := exp2Step(f)
	q := math.Floor(x/step) * step
	lo, hi := exp2Min(f), exp2Max(f)
	if q < lo {
		return lo
	}
	if q > hi {
		return hi
	}
	return q
}

// checkAgainstOracle fails t unless the compiled quantiser returns
// exactly the oracle's bits for x.
func checkAgainstOracle(t *testing.T, f Format, x float64) {
	t.Helper()
	want := math.Float64bits(exp2Quantize(f, x))
	q := f.Compile()
	if got := math.Float64bits(q.Quantize(x)); got != want {
		t.Fatalf("%+v: Quantize(%v) = %v, oracle %v", f, x, math.Float64frombits(got), math.Float64frombits(want))
	}
}

// oracleFormats lists every format the emulation supports with 0-8
// integer bits: every FracBits up to the 53-bit total word-length.
func oracleFormats() []Format {
	var out []Format
	for ib := 0; ib <= 8; ib++ {
		for fb := 0; 1+ib+fb <= maxWordLength; fb++ {
			out = append(out, NewFormat(ib, fb))
		}
	}
	return out
}

// TestQuantizerMatchesExp2Oracle checks the compiled quantiser against
// the math.Exp2 oracle on every supported format with 0-8 integer bits:
// special values (NaN, ±Inf, ±0, subnormals, the float64 extremes),
// values on, beside and far outside each format's range, and seeded
// random values at every magnitude.
func TestQuantizerMatchesExp2Oracle(t *testing.T) {
	special := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff), // largest subnormal
		0x1p-1022, -0x1p-1022, math.MaxFloat64, -math.MaxFloat64,
		1e300, -1e300, 0x1p60, -0x1p60, 0.5, -0.5, 1, -1, math.Pi, -math.E,
	}
	r := rng.New(19)
	for _, f := range oracleFormats() {
		if got, want := f.Step(), exp2Step(f); got != want {
			t.Fatalf("%+v: Step = %v, oracle %v", f, got, want)
		}
		if got, want := f.Min(), exp2Min(f); got != want {
			t.Fatalf("%+v: Min = %v, oracle %v", f, got, want)
		}
		if got, want := f.Max(), exp2Max(f); got != want {
			t.Fatalf("%+v: Max = %v, oracle %v", f, got, want)
		}
		for _, x := range special {
			checkAgainstOracle(t, f, x)
		}
		// The range ends, one step beyond them, and half-step ties.
		lo, hi, step := exp2Min(f), exp2Max(f), exp2Step(f)
		for _, x := range []float64{lo, hi, lo - step, hi + step, lo - step/2, hi + step/2, step / 2, -step / 2, 3 * step / 2} {
			checkAgainstOracle(t, f, x)
		}
		for i := 0; i < 32; i++ {
			// Uniform over twice the range: in range and overflowing.
			checkAgainstOracle(t, f, (2*r.Float64()-1)*2*(hi-lo))
			// Any float64 bit pattern: every exponent, NaN payloads,
			// infinities and subnormals.
			checkAgainstOracle(t, f, math.Float64frombits(r.Uint64()))
			// Subnormal magnitudes of both signs.
			checkAgainstOracle(t, f, math.Float64frombits(r.Uint64()&0x800fffffffffffff))
		}
	}
}

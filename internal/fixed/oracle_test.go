package fixed

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// The differential oracle: Format.Quantize as it stood before formats were
// compiled, with Step, Min and Max spelled out in their math.Exp2 forms,
// and with ±Inf wrapping to 0 rather than to math.Mod's NaN.
// Quantizer.Quantize must agree with it bit for bit on every input.

func exp2Step(f Format) float64 { return math.Exp2(-float64(f.FracBits)) }

func exp2Max(f Format) float64 { return math.Exp2(float64(f.IntBits)) - exp2Step(f) }

func exp2Min(f Format) float64 { return -math.Exp2(float64(f.IntBits)) }

func exp2Quantize(f Format, x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	step := exp2Step(f)
	var q float64
	switch f.Quant {
	case Truncate:
		q = math.Floor(x/step) * step
	case RoundNearest:
		q = math.Round(x/step) * step
	default:
		panic("fixed: unknown quantisation mode")
	}
	lo, hi := exp2Min(f), exp2Max(f)
	if q >= lo && q <= hi {
		return q
	}
	switch f.Overflow {
	case Saturate:
		if q < lo {
			return lo
		}
		return hi
	case Wrap:
		if math.IsInf(q, 0) {
			return 0
		}
		// Two's-complement wrap over the range [lo, hi+step).
		span := math.Exp2(float64(f.IntBits + 1)) // hi+step - lo
		w := math.Mod(q-lo, span)
		if w < 0 {
			w += span
		}
		return lo + w
	default:
		panic("fixed: unknown overflow mode")
	}
}

// checkAgainstOracle fails t unless the compiled quantiser and
// Format.Quantize both return exactly the oracle's bits for x.
func checkAgainstOracle(t *testing.T, f Format, x float64) {
	t.Helper()
	want := math.Float64bits(exp2Quantize(f, x))
	q := f.Compile()
	if got := math.Float64bits(q.Quantize(x)); got != want {
		t.Fatalf("%v: Quantizer.Quantize(%v) = %v, oracle %v", f, x, math.Float64frombits(got), math.Float64frombits(want))
	}
	if got := math.Float64bits(f.Quantize(x)); got != want {
		t.Fatalf("%v: Format.Quantize(%v) = %v, oracle %v", f, x, math.Float64frombits(got), math.Float64frombits(want))
	}
}

// oracleFormats lists every format the emulation supports with 0-8
// integer bits, under all four quantisation/overflow mode pairs.
func oracleFormats() []Format {
	var out []Format
	for _, qm := range []QuantMode{Truncate, RoundNearest} {
		for _, om := range []OverflowMode{Saturate, Wrap} {
			for ib := 0; ib <= 8; ib++ {
				for fb := 0; fb <= 51-ib; fb++ {
					out = append(out, Format{IntBits: ib, FracBits: fb, Quant: qm, Overflow: om})
				}
			}
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
			t.Fatalf("%v: Step = %v, oracle %v", f, got, want)
		}
		if got, want := f.Min(), exp2Min(f); got != want {
			t.Fatalf("%v: Min = %v, oracle %v", f, got, want)
		}
		if got, want := f.Max(), exp2Max(f); got != want {
			t.Fatalf("%v: Max = %v, oracle %v", f, got, want)
		}
		for _, x := range special {
			checkAgainstOracle(t, f, x)
		}
		// Both sides agreeing is not enough for ±Inf: under Wrap it once
		// agreed on NaN. It must wrap to 0, as NaN does.
		if f.Overflow == Wrap {
			for _, x := range []float64{math.Inf(1), math.Inf(-1)} {
				if got := f.Quantize(x); math.Float64bits(got) != 0 {
					t.Fatalf("%v: Quantize(%v) = %v, want 0", f, x, got)
				}
			}
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

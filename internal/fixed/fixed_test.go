package fixed

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestFormatBasics(t *testing.T) {
	f := NewFormat(3, 12)
	if f.Step() != math.Exp2(-12) {
		t.Errorf("Step = %v", f.Step())
	}
	if f.Max() != 8-math.Exp2(-12) {
		t.Errorf("Max = %v", f.Max())
	}
	if f.Min() != -8 {
		t.Errorf("Min = %v", f.Min())
	}
}

func TestQuantizeTruncate(t *testing.T) {
	f := NewFormat(3, 2) // step 0.25
	cases := []struct{ in, want float64 }{
		{0.0, 0.0},
		{0.3, 0.25},
		{0.25, 0.25},
		{0.999, 0.75},
		{-0.1, -0.25}, // truncation rounds toward -inf
		{-0.25, -0.25},
	}
	for _, c := range cases {
		if got := f.Quantize(c.in); got != c.want {
			t.Errorf("truncate(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuantizeRoundNearest(t *testing.T) {
	f := NewFormat(3, 2)
	f.Quant = RoundNearest
	cases := []struct{ in, want float64 }{
		{0.3, 0.25},
		{0.4, 0.5},
		{-0.3, -0.25},
		{-0.4, -0.5},
	}
	for _, c := range cases {
		if got := f.Quantize(c.in); got != c.want {
			t.Errorf("round(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuantizeSaturate(t *testing.T) {
	f := NewFormat(1, 2) // range [-2, 1.75]
	if got := f.Quantize(5); got != f.Max() {
		t.Errorf("saturate high = %v, want %v", got, f.Max())
	}
	if got := f.Quantize(-5); got != f.Min() {
		t.Errorf("saturate low = %v, want %v", got, f.Min())
	}
}

func TestQuantizeWrap(t *testing.T) {
	f := NewFormat(1, 2)
	f.Overflow = Wrap
	// Range is [-2, 2); 2 wraps to -2, 2.25 wraps to -1.75.
	if got := f.Quantize(2); got != -2 {
		t.Errorf("wrap(2) = %v, want -2", got)
	}
	if got := f.Quantize(2.25); got != -1.75 {
		t.Errorf("wrap(2.25) = %v, want -1.75", got)
	}
	if got := f.Quantize(-2.25); got != 1.75 {
		t.Errorf("wrap(-2.25) = %v, want 1.75", got)
	}
}

func TestQuantizeNaN(t *testing.T) {
	f := NewFormat(1, 4)
	if got := f.Quantize(math.NaN()); got != 0 {
		t.Errorf("Quantize(NaN) = %v, want 0", got)
	}
}

func TestQuantizeIdempotent(t *testing.T) {
	f := NewFormat(2, 6)
	r := rng.New(3)
	for i := 0; i < 1000; i++ {
		x := r.NormScaled(0, 2)
		q := f.Quantize(x)
		if f.Quantize(q) != q {
			t.Fatalf("quantisation not idempotent at %v", x)
		}
	}
}

func TestQuantizeSlice(t *testing.T) {
	f := NewFormat(3, 1)
	out := f.QuantizeSlice(nil, []float64{0.6, 1.3})
	if out[0] != 0.5 || out[1] != 1.0 {
		t.Errorf("QuantizeSlice = %v", out)
	}
	dst := make([]float64, 2)
	out2 := f.QuantizeSlice(dst, []float64{0.6, 1.3})
	if &out2[0] != &dst[0] {
		t.Error("QuantizeSlice did not reuse dst")
	}
}

// quantizationNoisePower is the analytic noise power of quantising to f
// under the uniform-error model: truncation error is uniform on
// (-step, 0], so P = step²/3; round-to-nearest error is uniform on
// [-step/2, step/2), so P = step²/12.
func quantizationNoisePower(f Format) float64 {
	s := f.Step()
	if f.Quant == Truncate {
		return s * s / 3
	}
	return s * s / 12
}

func TestEmpiricalNoiseMatchesModel(t *testing.T) {
	// Measured truncation noise power over uniform inputs should match
	// the step²/3 model within a few percent; same for rounding and
	// step²/12.
	r := rng.New(9)
	const n = 200000
	for _, mode := range []QuantMode{Truncate, RoundNearest} {
		f := NewFormat(1, 8)
		f.Quant = mode
		var sum float64
		for i := 0; i < n; i++ {
			x := r.Float64()*2 - 1
			d := f.Quantize(x) - x
			sum += d * d
		}
		got := sum / n
		want := quantizationNoisePower(f)
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("%s: empirical P = %v, model %v", mode, got, want)
		}
	}
}

// TestOps models an adder, a multiplier and a multiply-accumulate whose
// output registers have the format: each quantises its exact result.
func TestOps(t *testing.T) {
	q := NewFormat(3, 2).Compile()
	if got := q.Quantize(0.3 + 0.3); got != 0.5 {
		t.Errorf("Add = %v", got) // 0.6 truncates to 0.5
	}
	if got := q.Quantize(0.5 * 0.6); got != 0.25 {
		t.Errorf("Mul = %v", got) // 0.3 truncates to 0.25
	}
	if got := q.Quantize(0.25 + 0.5*0.5); got != 0.5 {
		t.Errorf("MAC = %v", got)
	}
}

func TestModeStrings(t *testing.T) {
	if Truncate.String() != "truncate" || RoundNearest.String() != "round-nearest" {
		t.Error("quant mode names")
	}
	if Saturate.String() != "saturate" || Wrap.String() != "wrap" {
		t.Error("overflow mode names")
	}
	f := NewFormat(3, 12)
	if f.String() != "Q3.12(truncate,saturate)" {
		t.Errorf("Format.String = %q", f.String())
	}
}

func TestPropertyQuantizeWithinRange(t *testing.T) {
	f := func(x float64, ib, fb uint8) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		fmt := NewFormat(int(ib%8), int(fb%16))
		q := fmt.Quantize(x)
		return q >= fmt.Min() && q <= fmt.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyQuantizeErrorBounded(t *testing.T) {
	// Inside the representable range, |q - x| < step for truncation.
	f := func(frac uint8) bool {
		fb := int(frac % 16)
		fmt := NewFormat(4, fb)
		r := rng.New(uint64(frac) + 1)
		for i := 0; i < 100; i++ {
			x := r.NormScaled(0, 3)
			if x < fmt.Min() || x > fmt.Max() {
				continue
			}
			if math.Abs(fmt.Quantize(x)-x) >= fmt.Step() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyMoreBitsLessError(t *testing.T) {
	// Increasing the fractional word-length never increases the
	// truncation error magnitude on a fixed input.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		x := r.NormScaled(0, 0.5)
		prev := math.Inf(1)
		for fb := 2; fb <= 14; fb += 3 {
			fmt := NewFormat(2, fb)
			e := math.Abs(fmt.Quantize(x) - x)
			if e > prev+1e-15 {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

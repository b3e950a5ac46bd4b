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

// quantize compiles f and quantises x with it.
func quantize(f Format, x float64) float64 {
	q := f.Compile()
	return q.Quantize(x)
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
		if got := quantize(f, c.in); got != c.want {
			t.Errorf("truncate(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuantizeSaturate(t *testing.T) {
	f := NewFormat(1, 2) // range [-2, 1.75]
	if got := quantize(f, 5); got != f.Max() {
		t.Errorf("saturate high = %v, want %v", got, f.Max())
	}
	if got := quantize(f, -5); got != f.Min() {
		t.Errorf("saturate low = %v, want %v", got, f.Min())
	}
}

func TestQuantizeNaN(t *testing.T) {
	f := NewFormat(1, 4)
	if got := quantize(f, math.NaN()); got != 0 {
		t.Errorf("Quantize(NaN) = %v, want 0", got)
	}
}

func TestQuantizeIdempotent(t *testing.T) {
	f := NewFormat(2, 6)
	r := rng.New(3)
	for i := 0; i < 1000; i++ {
		x := r.NormScaled(0, 2)
		q := quantize(f, x)
		if quantize(f, q) != q {
			t.Fatalf("quantisation not idempotent at %v", x)
		}
	}
}

func TestEmpiricalNoiseMatchesModel(t *testing.T) {
	// Truncation error is uniform on (-step, 0] under the uniform-error
	// model, so its power is step²/3: measured over uniform inputs it
	// should match within a few percent.
	r := rng.New(9)
	const n = 200000
	f := NewFormat(1, 8)
	var sum float64
	for i := 0; i < n; i++ {
		x := r.Float64()*2 - 1
		d := quantize(f, x) - x
		sum += d * d
	}
	got := sum / n
	want := f.Step() * f.Step() / 3
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("empirical P = %v, model %v", got, want)
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

func TestPropertyQuantizeWithinRange(t *testing.T) {
	f := func(x float64, ib, fb uint8) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		fmt := NewFormat(int(ib%8), int(fb%16))
		q := quantize(fmt, x)
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
			if math.Abs(quantize(fmt, x)-x) >= fmt.Step() {
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
			e := math.Abs(quantize(fmt, x) - x)
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

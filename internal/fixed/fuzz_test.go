package fixed

import (
	"math"
	"testing"
)

// FuzzQuantize checks the quantiser over arbitrary inputs and formats: it
// matches the math.Exp2 oracle bit for bit, and its results stay on the
// grid, inside the range, and are idempotent.
func FuzzQuantize(f *testing.F) {
	f.Add(0.5, uint8(3), uint8(12))
	f.Add(-1e9, uint8(0), uint8(0))
	f.Add(math.Pi, uint8(7), uint8(20))
	f.Add(math.Inf(1), uint8(8), uint8(43))
	f.Add(math.NaN(), uint8(2), uint8(5))
	f.Add(0.3, uint8(1), uint8(51))
	f.Add(math.Inf(-1), uint8(0), uint8(40))
	f.Add(-math.SmallestNonzeroFloat64, uint8(0), uint8(52))
	f.Fuzz(func(t *testing.T, x float64, ib, fb uint8) {
		// Every format with 0-8 integer bits up to the 53-bit total.
		fmt := NewFormat(int(ib%9), int(fb)%(maxWordLength-int(ib%9)))
		checkAgainstOracle(t, fmt, x)
		q := quantize(fmt, x)
		if math.IsNaN(q) || math.IsInf(q, 0) {
			t.Fatalf("non-finite quantisation of %v: %v", x, q)
		}
		if q < fmt.Min() || q > fmt.Max() {
			t.Fatalf("quantised %v to %v outside [%v, %v]", x, q, fmt.Min(), fmt.Max())
		}
		// On-grid: q / step must be integral.
		steps := q / fmt.Step()
		if math.Abs(steps-math.Round(steps)) > 1e-6 {
			t.Fatalf("quantised value %v not on the grid (step %v)", q, fmt.Step())
		}
		if quantize(fmt, q) != q {
			t.Fatalf("quantisation not idempotent at %v", x)
		}
	})
}

package space

import (
	"testing"

	"repro/internal/rng"
)

// TestUnrolledMetricsMatchSerialReference pins the 4-wide unrolled L1
// kernel against the obvious serial loop across dimensions that cover
// every remainder shape; integer sums are order-independent, so the two
// must match exactly.
func TestUnrolledMetricsMatchSerialReference(t *testing.T) {
	r := rng.New(29)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 33} {
		for trial := 0; trial < 50; trial++ {
			a := make(Config, n)
			b := make(Config, n)
			for i := 0; i < n; i++ {
				a[i] = r.Intn(64) - 32
				b[i] = r.Intn(64) - 32
			}
			var l1 int
			for i := range a {
				d := a[i] - b[i]
				if d < 0 {
					d = -d
				}
				l1 += d
			}
			if got := L1(a, b); got != l1 {
				t.Fatalf("n=%d: L1 = %d, want %d", n, got, l1)
			}
		}
	}
}

package signal

import (
	"testing"

	"repro/internal/raceflag"
)

// TestAllocsNoisePower gates every signal kernel's simulation at a
// constant number of allocations — at most 2, whatever the sample or
// frame count: the quantisers are compiled onto the stack once per call
// and only the output buffer of FIR/IIR is heap-allocated. Run without
// -race by scripts/check_allocs.sh.
func TestAllocsNoisePower(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation gates are measured without -race (see scripts/check_allocs.sh)")
	}
	cases := []struct {
		name  string
		mk    func(n int) (Benchmark, error)
		sizes [2]int
	}{
		{"fir", func(n int) (Benchmark, error) { return NewFIRBenchmark(1, n) }, [2]int{64, 512}},
		{"iir", func(n int) (Benchmark, error) { return NewIIRBenchmark(1, n) }, [2]int{64, 512}},
		{"fft", func(n int) (Benchmark, error) { return NewFFTBenchmark(1, n) }, [2]int{1, 8}},
	}
	for _, c := range cases {
		var allocs [2]float64
		for i, n := range c.sizes {
			b, err := c.mk(n)
			if err != nil {
				t.Fatal(err)
			}
			cfg := b.Bounds().Corner(true)
			allocs[i] = testing.AllocsPerRun(20, func() {
				if _, err := b.NoisePower(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[0] > 2 || allocs[1] != allocs[0] {
			t.Errorf("%s: NoisePower allocs/op = %v at sizes %v, want a constant <= 2", c.name, allocs, c.sizes)
		}
	}
}

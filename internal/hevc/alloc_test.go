package hevc

import (
	"testing"

	"repro/internal/raceflag"
	"repro/internal/space"
)

// TestAllocsNoisePower gates the luma, chroma and SSIM simulations at a
// constant number of allocations — at most 2, whatever the block count:
// each call compiles its quantisers and interpolates every block in
// fixed-size stack arrays. Run without -race by scripts/check_allocs.sh.
func TestAllocsNoisePower(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation gates are measured without -race (see scripts/check_allocs.sh)")
	}
	cases := []struct {
		name string
		mk   func(blocks int) (func(space.Config) (float64, error), space.Bounds, error)
	}{
		{"hevc", func(n int) (func(space.Config) (float64, error), space.Bounds, error) {
			b, err := NewBenchmark(1, n)
			if err != nil {
				return nil, space.Bounds{}, err
			}
			return b.NoisePower, b.Bounds(), nil
		}},
		{"hevc-chroma", func(n int) (func(space.Config) (float64, error), space.Bounds, error) {
			b, err := NewChromaBenchmark(1, n)
			if err != nil {
				return nil, space.Bounds{}, err
			}
			return b.NoisePower, b.Bounds(), nil
		}},
		{"hevc-ssim", func(n int) (func(space.Config) (float64, error), space.Bounds, error) {
			b, err := NewSSIMBenchmark(1, n)
			if err != nil {
				return nil, space.Bounds{}, err
			}
			return b.Evaluate, b.Bounds(), nil
		}},
	}
	sizes := [2]int{1, 8}
	for _, c := range cases {
		var allocs [2]float64
		for i, n := range sizes {
			eval, bounds, err := c.mk(n)
			if err != nil {
				t.Fatal(err)
			}
			cfg := bounds.Corner(true)
			allocs[i] = testing.AllocsPerRun(20, func() {
				if _, err := eval(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[0] > 2 || allocs[1] != allocs[0] {
			t.Errorf("%s: allocs/op = %v at %v blocks, want a constant <= 2", c.name, allocs, sizes)
		}
	}
}

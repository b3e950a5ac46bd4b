package hevc

import (
	"testing"

	"repro/internal/raceflag"
	"repro/internal/space"
)

// TestAllocsNoisePower gates the luma, chroma and SSIM simulations at a
// constant number of allocations — at most 2, whatever the block count:
// each call compiles its quantisers and interpolates every block in
// fixed-size stack arrays, and a luma call whose horizontal pass misses
// the Benchmark's entry allocates one fresh entry and its plane slice.
// Alternating two configurations that differ in a horizontal node makes
// every luma call miss; alternating two that differ in a vertical node
// makes every luma call hit. Run without -race by scripts/check_allocs.sh.
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
	pairs := []struct {
		name string
		node func(nv int) int // the node the two configurations differ in
	}{
		{"miss", func(int) int { return 1 }},        // h_prod0
		{"hit", func(nv int) int { return nv - 1 }}, // the output register
	}
	sizes := [2]int{1, 8}
	for _, c := range cases {
		for _, pr := range pairs {
			var allocs [2]float64
			for i, n := range sizes {
				eval, bounds, err := c.mk(n)
				if err != nil {
					t.Fatal(err)
				}
				hi := bounds.Corner(true)
				j := pr.node(len(hi))
				cfgs := [2]space.Config{hi, hi.With(j, hi[j]-1)}
				k := 0
				allocs[i] = testing.AllocsPerRun(20, func() {
					k++
					if _, err := eval(cfgs[k%2]); err != nil {
						t.Fatal(err)
					}
				})
			}
			if allocs[0] > 2 || allocs[1] != allocs[0] {
				t.Errorf("%s %s: allocs/op = %v at %v blocks, want a constant <= 2", c.name, pr.name, allocs, sizes)
			}
		}
	}
}

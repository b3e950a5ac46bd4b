package bench

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

// BenchmarkSimulate measures one simulation of each paper kernel (Small,
// seed 1), cycling over 16 seeded in-bounds configurations: the cost the
// kriging evaluator exists to avoid. Run with -benchmem; allocs/op is
// gated separately by the simulators' TestAllocs* tests.
func BenchmarkSimulate(b *testing.B) {
	for _, name := range []string{"fir", "iir", "fft", "hevc", "hevc-chroma"} {
		b.Run(name, func(b *testing.B) {
			sp, err := SpecByName(name, Small)
			if err != nil {
				b.Fatal(err)
			}
			sim, err := sp.NewSimulator(1)
			if err != nil {
				b.Fatal(err)
			}
			r := rng.NewNamed(1, "simulate-"+name)
			cfgs := make([]space.Config, 16)
			for i := range cfgs {
				cfgs[i] = make(space.Config, sp.Nv)
				for j := range cfgs[i] {
					cfgs[i][j] = r.IntRange(sp.Bounds.Lo[j], sp.Bounds.Hi[j])
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Evaluate(cfgs[i%len(cfgs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

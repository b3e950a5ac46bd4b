package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

// goldenSimulatorNames lists the simulators TestGoldenSimulators pins:
// every paper kernel plus the chroma and SSIM variants of HEVC.
var goldenSimulatorNames = []string{"fir", "iir", "fft", "hevc", "hevc-chroma", "hevc-ssim"}

// TestGoldenSimulators pins λ of every simulator (Small, seed 1) on 64
// seeded configurations plus the low and high corners of its bounds, so
// a change to a kernel or to the fixed-point emulation must prove it
// leaves every simulated value bit-identical.
func TestGoldenSimulators(t *testing.T) {
	var b strings.Builder
	for _, name := range goldenSimulatorNames {
		sp, err := SpecByName(name, Small)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := sp.NewSimulator(1)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.NewNamed(1, "golden-"+name)
		cfgs := []space.Config{sp.Bounds.Corner(false), sp.Bounds.Corner(true)}
		for i := 0; i < 64; i++ {
			cfg := make(space.Config, sp.Nv)
			for j := range cfg {
				cfg[j] = r.IntRange(sp.Bounds.Lo[j], sp.Bounds.Hi[j])
			}
			cfgs = append(cfgs, cfg)
		}
		for _, cfg := range cfgs {
			v, err := sim.Evaluate(cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", name, cfg, err)
			}
			fmt.Fprintf(&b, "%s %s %s\n", name, cfg.Key(), fmtFloat(v))
		}
	}
	checkGolden(t, "golden_simulators.txt", b.String())
}

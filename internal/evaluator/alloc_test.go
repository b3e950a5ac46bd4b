package evaluator

import (
	"testing"

	"repro/internal/kriging"
	"repro/internal/raceflag"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/variogram"
)

// skipUnderRace skips allocation gates when race instrumentation (which
// allocates on its own) is compiled in; scripts/check_allocs.sh runs
// them without -race.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("allocation gates are measured without -race (see scripts/check_allocs.sh)")
	}
}

// allocEvaluator builds an evaluator over a trivially fast simulator
// with a warm support store and a fixed variogram model (the paper's
// identify-once setup).
func allocEvaluator(t *testing.T) (*Evaluator, []space.Config) {
	t.Helper()
	sim := SimulatorFunc{NumVars: 4, Fn: func(cfg space.Config) (float64, error) {
		var p float64
		for _, w := range cfg {
			p += float64(w * w)
		}
		return -p, nil
	}}
	ev, err := New(sim, Options{
		D: 3, NnMin: 1, MaxSupport: 10,
		Interp: &kriging.Ordinary{Model: &variogram.ExponentialModel{Sill: 40, Range: 5, Nugget: 0.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the full [6,9]^4 block (256 configurations) so later
	// queries resolve as exact hits or krige from a dense warm store.
	batch := make([]space.Config, 0, 256)
	for a := 6; a <= 9; a++ {
		for b := 6; b <= 9; b++ {
			for c := 6; c <= 9; c++ {
				for d := 6; d <= 9; d++ {
					batch = append(batch, space.Config{a, b, c, d})
				}
			}
		}
	}
	if _, err := ev.EvaluateAll(batch, 4); err != nil {
		t.Fatal(err)
	}
	return ev, batch
}

// TestAllocsEvaluateExactHit gates the cheapest steady-state path: an
// exact store hit must not allocate at all.
func TestAllocsEvaluateExactHit(t *testing.T) {
	skipUnderRace(t)
	ev, batch := allocEvaluator(t)
	i := 0
	if got := testing.AllocsPerRun(200, func() {
		if _, err := ev.Evaluate(batch[i%len(batch)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); got > 0 {
		t.Errorf("exact-hit Evaluate allocates %.2f per run, want 0", got)
	}
}

// TestAllocsEvaluateInterpolated gates the kriging path end to end —
// neighbourhood search on the pooled query scratch, the kriging system
// built and solved in the pooled kriging scratch: at most one allocation
// per steady-state interpolated query.
func TestAllocsEvaluateInterpolated(t *testing.T) {
	skipUnderRace(t)
	ev, _ := allocEvaluator(t)
	// Query points never simulated — one coordinate pushed just outside
	// the simulated [6,9]^4 block, still within D=3 of it — so every
	// query interpolates from the warm store.
	r := rng.New(33)
	queries := make([]space.Config, 64)
	for qi := range queries {
		c := make(space.Config, 4)
		for i := range c {
			c[i] = r.IntRange(6, 9)
		}
		c[r.Intn(4)] = 10
		queries[qi] = c
	}
	for _, q := range queries {
		res, err := ev.Evaluate(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != Interpolated {
			t.Fatalf("setup: query %v did not interpolate (source %v)", q, res.Source)
		}
	}
	i := 0
	interpBefore := ev.Stats().NInterp
	got := testing.AllocsPerRun(200, func() {
		if _, err := ev.Evaluate(queries[i%len(queries)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if ev.Stats().NInterp == interpBefore {
		t.Fatal("setup: measured queries did not interpolate")
	}
	if got > 1 {
		t.Errorf("steady-state interpolated Evaluate allocates %.2f per run, want <= 1", got)
	}
}

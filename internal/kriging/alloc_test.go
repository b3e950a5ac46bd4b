package kriging

import (
	"testing"

	"repro/internal/raceflag"
	"repro/internal/rng"
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

// TestAllocsOrdinaryPredict is the zero-allocation gate of the kriging
// hot path: every Predict builds its system in pooled scratch (fitting
// the default power model inside the Γ assembly) and solves in place, so
// it must not touch the heap, first call included.
func TestAllocsOrdinaryPredict(t *testing.T) {
	skipUnderRace(t)
	r := rng.New(21)
	xs, ys := drawSupport(r, 20, 3)
	q := []float64{4.5, 5.5, 6.5}
	for name, o := range map[string]*Ordinary{
		"fixed model":     {Model: &variogram.ExponentialModel{Sill: 30, Range: 6, Nugget: 0.1}},
		"power fit":       {},
		"power fit β=1.8": {PowerBeta: 1.8},
	} {
		if got := testing.AllocsPerRun(200, func() {
			if _, err := o.Predict(xs, ys, q); err != nil {
				t.Fatal(err)
			}
		}); got > 0 {
			t.Errorf("%s: Ordinary.Predict allocates %.2f per run, want 0", name, got)
		}
	}
}

// TestAllocsSimplePredict mirrors the gate for simple kriging's
// Cholesky-factored covariance systems under a fixed model.
func TestAllocsSimplePredict(t *testing.T) {
	skipUnderRace(t)
	r := rng.New(22)
	xs, ys := drawSupport(r, 20, 3)
	s := &Simple{Model: &variogram.SphericalModel{Sill: 30, Range: 8, Nugget: 0.1}}
	q := []float64{4.5, 5.5, 6.5}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := s.Predict(xs, ys, q); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("Simple.Predict allocates %.2f per run, want 0", got)
	}
}

// TestAllocsBaselines pins the baseline interpolators: IDW and Nearest
// stream over the support without materialising weight or distance
// slices, and Capped's selection runs on pooled scratch.
func TestAllocsBaselines(t *testing.T) {
	skipUnderRace(t)
	r := rng.New(23)
	xs, ys := drawSupport(r, 30, 3)
	q := []float64{4.25, 5.25, 6.25}
	idw := &IDW{}
	nn := &Nearest{}
	capped := &Capped{Inner: nn, K: 10}
	for name, ip := range map[string]Interpolator{"idw": idw, "nearest": nn, "capped-nearest": capped} {
		ip := ip
		if _, err := ip.Predict(xs, ys, q); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() {
			if _, err := ip.Predict(xs, ys, q); err != nil {
				t.Fatal(err)
			}
		}); got > 0 {
			t.Errorf("%s Predict allocates %.2f per run, want 0", name, got)
		}
	}
}

// TestAllocsLeaveOneOut pins the fold-buffer reuse: one LOOCV pass over
// n samples allocates its two fold buffers once, not per fold.
func TestAllocsLeaveOneOut(t *testing.T) {
	skipUnderRace(t)
	r := rng.New(24)
	xs, ys := drawSupport(r, 40, 3)
	nn := &Nearest{}
	if got := testing.AllocsPerRun(20, func() {
		LeaveOneOut(nn, xs, ys)
	}); got > 2 {
		t.Errorf("LeaveOneOut allocates %.2f per pass, want <= 2 (the reused fold buffers)", got)
	}
}

// TestAllocsPredictBatch is the batch analogue of the predict gates: a
// PredictBatch/PredictVarBatch of K=64 queries must be allocation-free,
// first call included — the system, the right-hand-side and weight
// blocks and the permutation buffers are all pooled.
func TestAllocsPredictBatch(t *testing.T) {
	skipUnderRace(t)
	r := rng.New(23)
	xs, ys := drawSupport(r, 20, 3)
	const k = 64
	queries := make([][]float64, k)
	for j := range queries {
		q := make([]float64, 3)
		for i := range q {
			q[i] = float64(r.IntRange(0, 14)) + r.NormScaled(0, 0.25)
		}
		queries[j] = q
	}
	out := make([]float64, k)
	outVar := make([]float64, k)

	for name, o := range map[string]*Ordinary{
		"fixed model": {Model: &variogram.ExponentialModel{Sill: 30, Range: 6, Nugget: 0.1}},
		"power fit":   {},
	} {
		if got := testing.AllocsPerRun(200, func() {
			if err := o.PredictBatch(xs, ys, queries, out); err != nil {
				t.Fatal(err)
			}
		}); got > 0 {
			t.Errorf("%s: Ordinary.PredictBatch (K=%d) allocates %.2f per run, want 0", name, k, got)
		}
		if got := testing.AllocsPerRun(200, func() {
			if err := o.PredictVarBatch(xs, ys, queries, out, outVar); err != nil {
				t.Fatal(err)
			}
		}); got > 0 {
			t.Errorf("%s: Ordinary.PredictVarBatch (K=%d) allocates %.2f per run, want 0", name, k, got)
		}
	}

	s := &Simple{Model: &variogram.ExponentialModel{Sill: 30, Range: 6, Nugget: 0.1}}
	if got := testing.AllocsPerRun(200, func() {
		if err := s.PredictBatch(xs, ys, queries, out); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("Simple.PredictBatch (K=%d) allocates %.2f per run, want 0", k, got)
	}
}

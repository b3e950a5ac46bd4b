package evaluator

import (
	"math"
	"testing"

	"repro/internal/kriging"
	"repro/internal/space"
	"repro/internal/store"
)

// seedCluster preloads a small support cluster so every nearby query
// resolves the whole store — same points, same (insertion) order — and
// the pre-pass can group them.
func seedCluster(ev *Evaluator) {
	ev.Preload([]store.Entry{
		{Config: space.Config{0, 0}, Lambda: 0},
		{Config: space.Config{2, 0}, Lambda: 6},
		{Config: space.Config{0, 2}, Lambda: 4},
		{Config: space.Config{2, 2}, Lambda: 10},
	})
}

// perQueryInterp exposes only Predict and PredictVar of an ordinary
// kriging interpolator, hiding its batch interfaces: support groups then
// take per-query calls, the reference arm of the twin runs below.
type perQueryInterp struct{ o *kriging.Ordinary }

func (p perQueryInterp) Predict(xs [][]float64, ys []float64, x []float64) (float64, error) {
	return p.o.Predict(xs, ys, x)
}

func (p perQueryInterp) PredictVar(xs [][]float64, ys []float64, x []float64) (float64, float64, error) {
	return p.o.PredictVar(xs, ys, x)
}

func (p perQueryInterp) Name() string { return p.o.Name() }

// twinInterp returns a fresh ordinary kriging interpolator, wrapped in
// perQueryInterp for the per-query arm.
func twinInterp(perQuery bool) kriging.Interpolator {
	o := &kriging.Ordinary{}
	if perQuery {
		return perQueryInterp{o}
	}
	return o
}

// TestEvaluateAllBatchPredict pins the support groups end to end: a
// batch of interpolatable queries sharing one neighbourhood is served
// through blocked kriging solves, bit-identical to the per-query arm,
// without extra simulations.
func TestEvaluateAllBatchPredict(t *testing.T) {
	queries := []space.Config{{1, 1}, {1, 0}, {0, 1}, {2, 1}, {1, 2}}
	run := func(perQuery bool) (*planeSim, []Result, Stats) {
		t.Helper()
		sim := newPlaneSim()
		ev, err := New(sim, Options{D: 8, NnMin: 1, Interp: twinInterp(perQuery)})
		if err != nil {
			t.Fatal(err)
		}
		seedCluster(ev)
		results, err := ev.EvaluateAll(queries, 4)
		if err != nil {
			t.Fatal(err)
		}
		return sim, results, ev.Stats()
	}
	simB, batch, stB := run(false)
	simS, seq, stS := run(true)

	for i := range queries {
		if batch[i].Lambda != seq[i].Lambda {
			t.Errorf("query %v: batch λ = %v != per-query %v (must be bit-identical)",
				queries[i], batch[i].Lambda, seq[i].Lambda)
		}
		if batch[i].Source != Interpolated || seq[i].Source != Interpolated {
			t.Errorf("query %v: sources %v / %v, want interpolated", queries[i], batch[i].Source, seq[i].Source)
		}
		if batch[i].Neighbors != seq[i].Neighbors {
			t.Errorf("query %v: neighbors %d != %d", queries[i], batch[i].Neighbors, seq[i].Neighbors)
		}
	}
	if simB.calls != 0 || simS.calls != 0 {
		t.Errorf("simulator ran %d/%d times, want 0 (all interpolated)", simB.calls, simS.calls)
	}
	if stB.NBatchPredict != len(queries) {
		t.Errorf("NBatchPredict = %d, want %d (every query through the blocked path)",
			stB.NBatchPredict, len(queries))
	}
	if stS.NBatchPredict != 0 {
		t.Errorf("per-query arm NBatchPredict = %d, want 0", stS.NBatchPredict)
	}
	if stB.NInterp != stS.NInterp || stB.SumNeigh != stS.SumNeigh {
		t.Errorf("stats diverge: batch %+v vs per-query %+v", stB, stS)
	}
}

// TestEvaluateAllBatchPredictMixed mixes exact hits, shared-support
// interpolations and out-of-range simulations in one batch; the pre-pass
// must classify all three correctly.
func TestEvaluateAllBatchPredictMixed(t *testing.T) {
	sim := &planeSim2{} // three workers: the simulator must be concurrency-safe
	ev, err := New(sim, Options{D: 4, NnMin: 1, Interp: &kriging.Ordinary{}})
	if err != nil {
		t.Fatal(err)
	}
	seedCluster(ev)
	queries := []space.Config{
		{1, 1},     // interpolated (shared support)
		{2, 2},     // exact hit
		{1, 0},     // interpolated (shared support)
		{40, 40},   // out of range: simulated
		{-30, -30}, // out of range: simulated
	}
	results, err := ev.EvaluateAll(queries, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantSource := []Source{Interpolated, Simulated, Interpolated, Simulated, Simulated}
	for i, res := range results {
		if res.Source != wantSource[i] {
			t.Errorf("query %v: source %v, want %v", queries[i], res.Source, wantSource[i])
		}
	}
	if results[1].Lambda != 10 {
		t.Errorf("exact hit λ = %v, want 10 (preloaded value)", results[1].Lambda)
	}
	if results[3].Lambda != 200 || results[4].Lambda != -150 {
		t.Errorf("simulated λ = %v/%v, want 200/-150", results[3].Lambda, results[4].Lambda)
	}
	if got := sim.calls.Load(); got != 2 {
		t.Errorf("simulator ran %d times, want 2", got)
	}
	st := ev.Stats()
	if st.NBatchPredict != 2 || st.NInterp != 2 || st.NSim != 2 {
		t.Errorf("stats %+v, want NBatchPredict 2, NInterp 2, NSim 2", st)
	}
	// The simulated results must have been committed to the store.
	if _, ok := ev.Store().Lookup(space.Config{40, 40}); !ok {
		t.Error("simulated batch result missing from the store")
	}
}

// TestEvaluateAllBatchPredictVarianceGate runs the batch path under a
// variance gate that rejects every prediction: gated members fall back
// to simulation exactly like the per-query arm, and the rejection
// counter moves identically in both arms.
func TestEvaluateAllBatchPredictVarianceGate(t *testing.T) {
	queries := []space.Config{{1, 1}, {1, 0}, {0, 1}}
	run := func(perQuery bool) (*planeSim, Stats) {
		t.Helper()
		sim := newPlaneSim()
		ev, err := New(sim, Options{D: 8, NnMin: 1, MaxVariance: 1e-12, Interp: twinInterp(perQuery)})
		if err != nil {
			t.Fatal(err)
		}
		seedCluster(ev)
		results, err := ev.EvaluateAll(queries, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			if res.Source != Simulated {
				t.Errorf("query %v: source %v, want simulated (variance gated)", queries[i], res.Source)
			}
		}
		return sim, ev.Stats()
	}
	simB, stB := run(false)
	simS, stS := run(true)
	if simB.calls != len(queries) || simS.calls != len(queries) {
		t.Errorf("simulator calls %d/%d, want %d each", simB.calls, simS.calls, len(queries))
	}
	if stB.NVarRejected != stS.NVarRejected || stB.NVarRejected == 0 {
		t.Errorf("NVarRejected %d (batch) vs %d (per-query), want equal and nonzero",
			stB.NVarRejected, stS.NVarRejected)
	}
	if stB.NBatchPredict != 0 {
		t.Errorf("NBatchPredict = %d, want 0 (every member gated)", stB.NBatchPredict)
	}
}

// TestEvaluateAllBatchPredictTransform runs the support groups under a
// log-domain transform pair and checks them against the per-query arm:
// the transform must be applied once per group with untransformed
// answers bit-identical to the per-query path.
func TestEvaluateAllBatchPredictTransform(t *testing.T) {
	queries := []space.Config{{1, 1}, {2, 1}, {1, 2}}
	tf := func(v float64) float64 { return math.Log1p(v) }
	utf := func(v float64) float64 { return math.Expm1(v) }
	run := func(perQuery bool) []Result {
		t.Helper()
		sim := newPlaneSim()
		ev, err := New(sim, Options{D: 8, NnMin: 1, Transform: tf, Untransform: utf,
			Interp: twinInterp(perQuery)})
		if err != nil {
			t.Fatal(err)
		}
		seedCluster(ev)
		results, err := ev.EvaluateAll(queries, 2)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	batch := run(false)
	seq := run(true)
	for i := range queries {
		if batch[i].Lambda != seq[i].Lambda || batch[i].Source != seq[i].Source {
			t.Errorf("query %v: batch (%v, %v) != per-query (%v, %v)", queries[i],
				batch[i].Lambda, batch[i].Source, seq[i].Lambda, seq[i].Source)
		}
	}
}

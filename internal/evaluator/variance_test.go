package evaluator

import (
	"testing"

	"repro/internal/kriging"
	"repro/internal/space"
)

func TestVarianceGateRejectsFarQueries(t *testing.T) {
	sim := newPlaneSim()
	ev, err := New(sim, Options{
		D: 20, NnMin: 1,
		Interp:      &kriging.Ordinary{},
		MaxVariance: 1e-9, // essentially reject every real interpolation
	})
	if err != nil {
		t.Fatal(err)
	}
	ev.Store().Add(space.Config{0, 0}, 0)
	ev.Store().Add(space.Config{10, 10}, 50)
	res, err := ev.Evaluate(space.Config{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != Simulated {
		t.Error("variance gate did not force simulation")
	}
	if ev.Stats().NVarRejected != 1 {
		t.Errorf("NVarRejected = %d", ev.Stats().NVarRejected)
	}
}

func TestVarianceGatePermitsConfidentQueries(t *testing.T) {
	sim := newPlaneSim()
	ev, err := New(sim, Options{
		D: 20, NnMin: 1,
		Interp:      &kriging.Ordinary{},
		MaxVariance: 1e12, // accept everything
	})
	if err != nil {
		t.Fatal(err)
	}
	ev.Store().Add(space.Config{4, 4}, 20)
	ev.Store().Add(space.Config{6, 6}, 30)
	res, err := ev.Evaluate(space.Config{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != Interpolated {
		t.Error("generous variance gate rejected a confident query")
	}
	if ev.Stats().NVarRejected != 0 {
		t.Error("spurious variance rejection")
	}
}

func TestVarianceGateIgnoredForPlainInterpolators(t *testing.T) {
	// IDW has no variance; the gate must be a no-op rather than an error.
	sim := newPlaneSim()
	ev, err := New(sim, Options{
		D: 20, NnMin: 1,
		Interp:      &kriging.IDW{},
		MaxVariance: 1e-12,
	})
	if err != nil {
		t.Fatal(err)
	}
	ev.Store().Add(space.Config{4, 4}, 20)
	ev.Store().Add(space.Config{6, 6}, 30)
	res, err := ev.Evaluate(space.Config{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != Interpolated {
		t.Error("gate applied to a non-variance interpolator")
	}
}

func TestVarianceOptionValidation(t *testing.T) {
	if _, err := New(newPlaneSim(), Options{MaxVariance: -1}); err == nil {
		t.Error("negative MaxVariance accepted")
	}
}

func TestStatsTimeAccountingAndSpeedup(t *testing.T) {
	sim := newPlaneSim()
	ev, err := New(sim, Options{D: 3, NnMin: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustEval(t, ev, space.Config{4, 4})
	mustEval(t, ev, space.Config{6, 6})
	res := mustEval(t, ev, space.Config{5, 5})
	if res.Source != Interpolated {
		t.Fatal("setup: third query should interpolate")
	}
	st := ev.Stats()
	if st.SimTime <= 0 {
		t.Error("no simulation time recorded")
	}
	if st.InterpTime <= 0 {
		t.Error("no interpolation time recorded")
	}
	if st.EstimatedSpeedup() <= 0 {
		t.Errorf("EstimatedSpeedup = %v", st.EstimatedSpeedup())
	}
	var zero Stats
	if zero.EstimatedSpeedup() != 0 {
		t.Error("zero stats should report 0 speed-up")
	}
}

package evaluator

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/kriging"
	"repro/internal/space"
)

// planeSim is a deterministic 2-D simulator with a smooth field and an
// invocation counter.
type planeSim struct {
	calls int
	fn    func(space.Config) float64
}

func newPlaneSim() *planeSim {
	return &planeSim{fn: func(c space.Config) float64 {
		return 3*float64(c[0]) + 2*float64(c[1])
	}}
}

func (p *planeSim) Evaluate(c space.Config) (float64, error) {
	p.calls++
	return p.fn(c), nil
}

func (p *planeSim) Nv() int { return 2 }

func TestEvaluatorSimulatesWhenNoNeighbors(t *testing.T) {
	sim := newPlaneSim()
	ev, err := New(sim, Options{D: 2, NnMin: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ev.Evaluate(space.Config{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != Simulated || res.Lambda != 25 {
		t.Errorf("first query: %+v", res)
	}
	if ev.Stats().NSim != 1 || ev.Stats().NInterp != 0 {
		t.Errorf("stats: %+v", ev.Stats())
	}
}

func TestEvaluatorInterpolatesWithNeighbors(t *testing.T) {
	sim := newPlaneSim()
	ev, err := New(sim, Options{D: 3, NnMin: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate two supports, then query between them.
	mustEval(t, ev, space.Config{4, 4})
	mustEval(t, ev, space.Config{6, 6})
	res, err := ev.Evaluate(space.Config{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != Interpolated {
		t.Fatalf("expected interpolation, got %+v", res)
	}
	if res.Neighbors != 2 {
		t.Errorf("Neighbors = %d", res.Neighbors)
	}
	if math.Abs(res.Lambda-25) > 1 {
		t.Errorf("interpolated λ = %v, want ~25", res.Lambda)
	}
	if sim.calls != 2 {
		t.Errorf("simulator ran %d times, want 2", sim.calls)
	}
	st := ev.Stats()
	if st.NInterp != 1 || st.SumNeigh != 2 {
		t.Errorf("stats: %+v", st)
	}
	if got := st.PercentInterpolated(); math.Abs(got-100.0/3) > 1e-9 {
		t.Errorf("p%% = %v", got)
	}
	if got := st.MeanNeighbors(); got != 2 {
		t.Errorf("j̄ = %v", got)
	}
}

func TestEvaluatorExactHitFree(t *testing.T) {
	sim := newPlaneSim()
	ev, _ := New(sim, Options{D: 2, NnMin: 1})
	mustEval(t, ev, space.Config{1, 1})
	before := sim.calls
	res, err := ev.Evaluate(space.Config{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if sim.calls != before {
		t.Error("exact hit re-simulated")
	}
	if res.Lambda != 5 || res.Source != Simulated {
		t.Errorf("exact hit result %+v", res)
	}
}

func TestEvaluatorRespectsNnMin(t *testing.T) {
	sim := newPlaneSim()
	ev, _ := New(sim, Options{D: 3, NnMin: 2})
	mustEval(t, ev, space.Config{4, 4})
	mustEval(t, ev, space.Config{6, 6})
	res, err := ev.Evaluate(space.Config{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	// Only 2 neighbours and NnMin = 2 requires strictly more than 2.
	if res.Source != Simulated {
		t.Errorf("NnMin=2 with 2 neighbours interpolated anyway")
	}
}

func TestEvaluatorDisabledWithZeroD(t *testing.T) {
	sim := newPlaneSim()
	ev, _ := New(sim, Options{})
	for i := 0; i < 5; i++ {
		mustEval(t, ev, space.Config{i, i})
	}
	if ev.Stats().NInterp != 0 {
		t.Error("D=0 interpolated")
	}
}

func TestEvaluatorMaxSupport(t *testing.T) {
	sim := newPlaneSim()
	ev, _ := New(sim, Options{D: 10, NnMin: 1, MaxSupport: 3})
	// Seed the support store directly: evaluating the points through the
	// evaluator would interpolate most of them (and not store them).
	for i := 0; i < 6; i++ {
		c := space.Config{i, 0}
		ev.Store().Add(c, 3*float64(c[0])+2*float64(c[1]))
	}
	res, err := ev.Evaluate(space.Config{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != Interpolated {
		t.Fatal("expected interpolation")
	}
	if res.Neighbors != 3 {
		t.Errorf("support size %d, want capped 3", res.Neighbors)
	}
}

func TestEvaluatorTransformRoundTrip(t *testing.T) {
	sim := &planeSim{fn: func(c space.Config) float64 {
		// λ = -P with P spanning decades.
		return -math.Exp2(-2 * float64(c[0]))
	}}
	ev, err := New(sim, Options{
		D: 4, NnMin: 1,
		Transform:   NegPowerToDB,
		Untransform: DBToNegPower,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustEval(t, ev, space.Config{4, 0})
	mustEval(t, ev, space.Config{6, 0})
	res, err := ev.Evaluate(space.Config{5, 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != Interpolated {
		t.Fatal("expected interpolation")
	}
	truth := -math.Exp2(-10)
	// dB-domain interpolation of an exactly log-linear field is exact up
	// to the variogram model; allow a loose factor.
	if res.Lambda > 0 || math.Abs(math.Log2(res.Lambda/truth)) > 1 {
		t.Errorf("interpolated λ = %v, want ≈ %v", res.Lambda, truth)
	}
}

func TestEvaluatorSimulatorError(t *testing.T) {
	boom := errors.New("boom")
	sim := SimulatorFunc{NumVars: 1, Fn: func(space.Config) (float64, error) { return 0, boom }}
	ev, _ := New(sim, Options{D: 1})
	if _, err := ev.Evaluate(space.Config{1}); !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestOptionsValidation(t *testing.T) {
	sim := newPlaneSim()
	cases := []Options{
		{D: -1},
		{D: math.NaN()},
		{NnMin: -1},
		{MaxSupport: -1},
		{MaxVariance: math.NaN()},
		{Transform: NegPowerToDB}, // missing Untransform
	}
	for i, o := range cases {
		if _, err := New(sim, o); !errors.Is(err, ErrBadOptions) {
			t.Errorf("case %d: err = %v, want ErrBadOptions", i, err)
		}
	}
	if _, err := New(sim, Options{D: math.Inf(1)}); err != nil {
		t.Errorf("unbounded radius: err = %v, want nil", err)
	}
}

func TestResetStatsKeepsStore(t *testing.T) {
	sim := newPlaneSim()
	ev, _ := New(sim, Options{D: 2, NnMin: 1})
	mustEval(t, ev, space.Config{1, 1})
	ev.ResetStats()
	if ev.Stats().NSim != 0 {
		t.Error("stats not reset")
	}
	if ev.Store().Len() != 1 {
		t.Error("store cleared by ResetStats")
	}
}

func TestSourceString(t *testing.T) {
	if Simulated.String() != "simulated" || Interpolated.String() != "interpolated" {
		t.Error("source names")
	}
}

func TestNvPassthrough(t *testing.T) {
	ev, _ := New(newPlaneSim(), Options{})
	if ev.Nv() != 2 {
		t.Errorf("Nv = %d", ev.Nv())
	}
}

func TestKrigingFailureFallsBackToSimulation(t *testing.T) {
	// An interpolator that always fails must not break the evaluator.
	sim := newPlaneSim()
	ev, err := New(sim, Options{D: 5, NnMin: 1, Interp: failingInterp{}})
	if err != nil {
		t.Fatal(err)
	}
	mustEval(t, ev, space.Config{4, 4})
	mustEval(t, ev, space.Config{6, 6})
	res, err := ev.Evaluate(space.Config{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != Simulated {
		t.Error("failed interpolation did not fall back to simulation")
	}
}

type failingInterp struct{}

func (failingInterp) Predict([][]float64, []float64, []float64) (float64, error) {
	return 0, fmt.Errorf("always fails")
}
func (failingInterp) Name() string { return "failing" }

func TestDefaultInterpolatorIsOrdinaryKriging(t *testing.T) {
	ev, err := New(newPlaneSim(), Options{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = ev
	// The default is installed by New; verify by type.
	var _ kriging.Interpolator = &kriging.Ordinary{}
}

func mustEval(t *testing.T, ev *Evaluator, cfg space.Config) Result {
	t.Helper()
	res, err := ev.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/evaluator"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/variogram"
)

// fieldSim is a smooth noise-power-like simulator with a call counter.
type fieldSim struct {
	calls int
	nv    int
}

func (f *fieldSim) Evaluate(c space.Config) (float64, error) {
	f.calls++
	var p float64
	for _, w := range c {
		p += math.Exp2(-2 * float64(w))
	}
	return -p, nil
}

func (f *fieldSim) Nv() int { return f.nv }

func newPipeline(t *testing.T, opts Options) (*Pipeline, *fieldSim) {
	t.Helper()
	sim := &fieldSim{nv: 3}
	p, err := New(sim, space.UniformBounds(3, 2, 14), opts)
	if err != nil {
		t.Fatal(err)
	}
	return p, sim
}

func TestNewValidation(t *testing.T) {
	sim := &fieldSim{nv: 2}
	if _, err := New(nil, space.UniformBounds(2, 1, 4), Options{}); err == nil {
		t.Error("nil simulator accepted")
	}
	if _, err := New(sim, space.UniformBounds(3, 1, 4), Options{}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := New(sim, space.UniformBounds(2, 4, 1), Options{}); err == nil {
		t.Error("inverted bounds accepted")
	}
	if _, err := New(sim, space.UniformBounds(2, 1, 4), Options{D: -1}); err == nil {
		t.Error("negative distance accepted")
	}
	if _, err := New(sim, space.UniformBounds(2, 1, 4), Options{Transform: evaluator.Identity}); err == nil {
		t.Error("half transform pair accepted")
	}
}

func TestRunPilotSimulates(t *testing.T) {
	p, sim := newPipeline(t, Options{D: 3})
	if err := p.RunPilot(16, 1); err != nil {
		t.Fatal(err)
	}
	if p.PilotSize() != 16 {
		t.Errorf("PilotSize = %d", p.PilotSize())
	}
	if sim.calls != 16 {
		t.Errorf("simulator calls = %d", sim.calls)
	}
	if err := p.RunPilot(-1, 1); err == nil {
		t.Error("negative pilot size accepted")
	}
}

func TestIdentifyRequiresPilot(t *testing.T) {
	p, _ := newPipeline(t, Options{D: 3})
	if _, err := p.Identify(); !errors.Is(err, ErrNoPilot) {
		t.Errorf("err = %v, want ErrNoPilot", err)
	}
}

func TestIdentifyFitsAndCaches(t *testing.T) {
	p, _ := newPipeline(t, Options{
		D:           3,
		Transform:   evaluator.NegPowerToDB,
		Untransform: evaluator.DBToNegPower,
	})
	if err := p.RunPilot(24, 1); err != nil {
		t.Fatal(err)
	}
	id, err := p.Identify()
	if err != nil {
		t.Fatal(err)
	}
	if id.Model == nil || id.Samples != 24 {
		t.Fatalf("identification: %+v", id)
	}
	if id.CV.N == 0 {
		t.Error("no cross-validation performed")
	}
	// A 24-point pilot in a 13³ lattice leaves nearest neighbours 4-8
	// apart; with a ~6 dB/bit field slope, a mean LOOCV error of a few
	// tens of dB is the expected order. Anything in the hundreds means
	// an ill-conditioned system.
	if id.CV.MeanAbs > 60 {
		t.Errorf("LOOCV mean abs = %v dB", id.CV.MeanAbs)
	}
	id2, err := p.Identify()
	if err != nil || id2 != id {
		t.Error("identification not cached")
	}
	// Extending the pilot invalidates the cache.
	if err := p.RunPilot(4, 2); err != nil {
		t.Fatal(err)
	}
	id3, err := p.Identify()
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id {
		t.Error("identification not invalidated by new pilot")
	}
}

func TestIdentifyFamilies(t *testing.T) {
	for _, kind := range []variogram.Kind{variogram.Power, variogram.Linear, variogram.Spherical} {
		p, _ := newPipeline(t, Options{D: 3, Kind: kind})
		if err := p.RunPilot(20, 3); err != nil {
			t.Fatal(err)
		}
		id, err := p.Identify()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if id.Model.Name() == "" {
			t.Errorf("%s: unnamed model", kind)
		}
	}
}

func TestEvaluatorSeededWithPilot(t *testing.T) {
	p, sim := newPipeline(t, Options{
		D:           4,
		Transform:   evaluator.NegPowerToDB,
		Untransform: evaluator.DBToNegPower,
	})
	if err := p.RunPilot(20, 1); err != nil {
		t.Fatal(err)
	}
	ev, err := p.Evaluator()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Store().Len() == 0 {
		t.Fatal("evaluator store not pre-seeded")
	}
	callsBefore := sim.calls
	// A query near the pilot cloud should interpolate, not simulate.
	res, err := ev.Evaluate(space.Config{8, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source == evaluator.Interpolated && sim.calls != callsBefore {
		t.Error("interpolated query still hit the simulator")
	}
	// Ground-truth check when interpolated.
	if res.Source == evaluator.Interpolated {
		truth, _ := (&fieldSim{nv: 3}).Evaluate(space.Config{8, 8, 8})
		if eps := math.Abs(math.Log2(res.Lambda / truth)); eps > 2 {
			t.Errorf("interpolated λ off by %v bits", eps)
		}
	}
}

func TestEvaluatorWithoutPilotFails(t *testing.T) {
	p, _ := newPipeline(t, Options{D: 3})
	if _, err := p.Evaluator(); !errors.Is(err, ErrNoPilot) {
		t.Errorf("err = %v, want ErrNoPilot", err)
	}
}

func TestLatinHypercubeCoverage(t *testing.T) {
	b := space.UniformBounds(2, 0, 9)
	n := 10
	cfgs := LatinHypercube(b, n, rng.New(1))
	if len(cfgs) != n {
		t.Fatalf("got %d configs", len(cfgs))
	}
	// With n strata equal to the lattice width, every value appears
	// exactly once per dimension.
	for dim := 0; dim < 2; dim++ {
		seen := map[int]int{}
		for _, c := range cfgs {
			if !b.Contains(c) {
				t.Fatalf("config %v out of bounds", c)
			}
			seen[c[dim]]++
		}
		for v := 0; v <= 9; v++ {
			if seen[v] != 1 {
				t.Errorf("dim %d value %d drawn %d times, want 1", dim, v, seen[v])
			}
		}
	}
}

func TestLatinHypercubeEdgeCases(t *testing.T) {
	if LatinHypercube(space.UniformBounds(2, 0, 5), 0, rng.New(1)) != nil {
		t.Error("n=0 should give nil")
	}
}

func TestPropertyLatinHypercubeInBoundsAndStratified(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nv := 1 + r.Intn(4)
		lo := r.IntRange(-5, 5)
		hi := lo + 1 + r.Intn(10)
		b := space.UniformBounds(nv, lo, hi)
		n := 2 + r.Intn(12)
		cfgs := LatinHypercube(b, n, r)
		if len(cfgs) != n {
			return false
		}
		for _, c := range cfgs {
			if !b.Contains(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

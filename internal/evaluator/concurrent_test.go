package evaluator

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/space"
)

// planeSim2 is a concurrency-safe simulator of a smooth plane field with
// an atomic call counter.
type planeSim2 struct{ calls atomic.Int64 }

func (s *planeSim2) Evaluate(cfg space.Config) (float64, error) {
	s.calls.Add(1)
	return 3*float64(cfg[0]) + 2*float64(cfg[1]), nil
}

func (s *planeSim2) Nv() int { return 2 }

// TestEvaluatorConcurrentStress hammers one Evaluator from 32 goroutines
// issuing distinct configurations and asserts the activity counters and
// the store size are exact — no lost updates, no double counts. Run with
// -race to validate the locking discipline end to end.
func TestEvaluatorConcurrentStress(t *testing.T) {
	const goroutines = 32
	const perG = 25
	sim := &planeSim2{}
	ev, err := New(sim, Options{D: 2, NnMin: 1, MaxSupport: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Disjoint per-goroutine configurations: every query is
				// fresh, so each one increments exactly one of
				// NSim/NInterp and every simulation stores a new entry.
				if _, err := ev.Evaluate(space.Config{g, i}); err != nil {
					t.Errorf("Evaluate({%d,%d}): %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	const total = goroutines * perG
	st := ev.Stats()
	if st.Total() != total {
		t.Errorf("Stats.Total = %d, want %d (NSim=%d NInterp=%d)", st.Total(), total, st.NSim, st.NInterp)
	}
	if got := int(sim.calls.Load()); got != st.NSim {
		t.Errorf("simulator ran %d times but NSim = %d", got, st.NSim)
	}
	if ev.Store().Len() != st.NSim {
		t.Errorf("store has %d entries, want NSim = %d", ev.Store().Len(), st.NSim)
	}
	if st.NInterp > 0 && st.SumNeigh < 2*st.NInterp {
		t.Errorf("SumNeigh = %d below minimum support for %d interpolations", st.SumNeigh, st.NInterp)
	}
}

// TestEvaluateAllConcurrentBatches issues overlapping parallel batches
// from several goroutines; counters must stay exact because batch
// members are disjoint across goroutines.
func TestEvaluateAllConcurrentBatches(t *testing.T) {
	const goroutines = 8
	const batch = 24
	sim := &planeSim2{}
	ev, err := New(sim, Options{D: 2, NnMin: 1, MaxSupport: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfgs := make([]space.Config, batch)
			for i := range cfgs {
				cfgs[i] = space.Config{100 + g, i}
			}
			res, err := ev.EvaluateAll(cfgs, 4)
			if err != nil {
				t.Errorf("EvaluateAll(g=%d): %v", g, err)
				return
			}
			for i, r := range res {
				want := 3*float64(cfgs[i][0]) + 2*float64(cfgs[i][1])
				if r.Source == Simulated && r.Lambda != want {
					t.Errorf("g=%d cfg %v: λ = %v, want %v", g, cfgs[i], r.Lambda, want)
				}
			}
		}(g)
	}
	wg.Wait()
	st := ev.Stats()
	if st.Total() != goroutines*batch {
		t.Errorf("Stats.Total = %d, want %d", st.Total(), goroutines*batch)
	}
	if ev.Store().Len() != st.NSim {
		t.Errorf("store has %d entries, want NSim = %d", ev.Store().Len(), st.NSim)
	}
}

// TestEvaluateAllDeterministicResults runs the same batch at several
// worker counts against identically-prepared evaluators and demands
// bit-identical results and store contents.
func TestEvaluateAllDeterministicResults(t *testing.T) {
	mkEval := func() *Evaluator {
		ev, err := New(&planeSim2{}, Options{D: 3, NnMin: 1, MaxSupport: 6})
		if err != nil {
			t.Fatal(err)
		}
		ev.Store().Add(space.Config{4, 4}, 20)
		ev.Store().Add(space.Config{6, 6}, 30)
		return ev
	}
	var cfgs []space.Config
	for i := 0; i < 20; i++ {
		cfgs = append(cfgs, space.Config{i % 9, (i * 3) % 9})
	}
	ref, err := mkEval().EvaluateAll(cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := mkEval().EvaluateAll(cfgs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("workers=%d cfg %v: %+v != sequential %+v", workers, cfgs[i], got[i], ref[i])
			}
		}
	}
}

// TestEvaluateAllDuplicatesAnsweredOnce pins the in-batch duplicate
// rule at every worker count: a repeated configuration is simulated (or
// kriged) once, by its first occurrence; later occurrences return that
// Result — marked Coalesced and counted in NCoalesced when it was
// simulated, counted in NInterp when it was kriged — and the store gains
// one entry per distinct configuration.
func TestEvaluateAllDuplicatesAnsweredOnce(t *testing.T) {
	cfgs := []space.Config{{1, 8}, {5, 5}, {8, 1}, {1, 8}, {5, 5}, {1, 8}, {8, 1}}
	owner := []int{0, 1, 2, 0, 1, 0, 2}
	for _, workers := range []int{1, 4} {
		sim := &planeSim2{}
		ev, err := New(sim, Options{D: 3, NnMin: 1, MaxSupport: 6})
		if err != nil {
			t.Fatal(err)
		}
		// {5, 5} is kriged from these; {1, 8} and {8, 1} have no support.
		ev.Store().Add(space.Config{4, 4}, 20)
		ev.Store().Add(space.Config{6, 6}, 30)
		res, err := ev.EvaluateAll(cfgs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := sim.calls.Load(); got != 2 {
			t.Errorf("workers=%d: %d simulations for 2 distinct unsupported configurations", workers, got)
		}
		for i, r := range res {
			o := res[owner[i]]
			if r.Lambda != o.Lambda || r.Source != o.Source || r.Neighbors != o.Neighbors {
				t.Errorf("workers=%d cfg %d: %+v is not its first occurrence's %+v", workers, i, r, o)
			}
			if want := owner[i] != i && r.Source == Simulated; r.Coalesced != want {
				t.Errorf("workers=%d cfg %d: Coalesced = %v, want %v", workers, i, r.Coalesced, want)
			}
		}
		if res[1].Source != Interpolated {
			t.Fatalf("workers=%d: {5, 5} was not kriged: %+v", workers, res[1])
		}
		st := ev.Stats()
		if st.NSim != 2 || st.NCoalesced != 3 || st.NInterp != 2 {
			t.Errorf("workers=%d: NSim=%d NCoalesced=%d NInterp=%d, want 2, 3, 2", workers, st.NSim, st.NCoalesced, st.NInterp)
		}
		if got := ev.Store().Len(); got != 4 {
			t.Errorf("workers=%d: store holds %d entries, want 4", workers, got)
		}
	}
}

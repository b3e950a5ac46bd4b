package evaluator

import (
	"bytes"

	"sync/atomic"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/store"
)

// countingSim is a deterministic simulator that counts its invocations.
func countingSim(nv int, calls *atomic.Int64) SimulatorFunc {
	return SimulatorFunc{NumVars: nv, Fn: func(c space.Config) (float64, error) {
		calls.Add(1)
		acc := 0
		for i, v := range c {
			acc += (i + 1) * v
		}
		return -float64(acc) / 100, nil
	}}
}

// TestStateDirResume is the evaluator-level recovery contract: a second
// evaluator opened on the same StateDir answers the first campaign's
// queries from the recovered store — zero new simulations, bit-identical
// values, kriging support included.
func TestStateDirResume(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	probes := []space.Config{{4, 4}, {4, 6}, {6, 4}, {9, 9}, {5, 5}, {12, 3}}

	ev, err := New(countingSim(2, &calls), Options{D: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	first := make([]Result, len(probes))
	for i, c := range probes {
		r, err := ev.Evaluate(c)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = r
	}
	simulated := calls.Load()
	if simulated == 0 {
		t.Fatal("first campaign simulated nothing")
	}
	if err := ev.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	ev2, err := New(countingSim(2, &calls), Options{D: 2, StateDir: dir})
	if err != nil {
		t.Fatalf("resuming New: %v", err)
	}
	defer ev2.Close()
	if got := ev2.Store().Len(); int64(got) != simulated {
		t.Fatalf("recovered %d configurations, campaign simulated %d", got, simulated)
	}
	for i, c := range probes {
		r, err := ev2.Evaluate(c)
		if err != nil {
			t.Fatal(err)
		}
		if r.Lambda != first[i].Lambda {
			t.Errorf("probe %v: resumed lambda %v differs from original %v", c, r.Lambda, first[i].Lambda)
		}
	}
	if calls.Load() != simulated {
		t.Errorf("resumed run re-simulated: %d calls total, want %d", calls.Load(), simulated)
	}
}

// TestStateDirBatchResume does the same through the batch path
// (EvaluateAll commits via one durable group commit per batch).
func TestStateDirBatchResume(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	batch := []space.Config{{3, 3}, {3, 5}, {5, 3}, {8, 8}, {3, 3}}

	ev, err := New(countingSim(2, &calls), Options{D: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ev.EvaluateAll(batch, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Close(); err != nil {
		t.Fatal(err)
	}

	ev2, err := New(countingSim(2, &calls), Options{D: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ev2.Close()
	before := calls.Load()
	res2, err := ev2.EvaluateAll(batch, 2)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != before {
		t.Errorf("resumed batch re-simulated %d configurations", calls.Load()-before)
	}
	for i := range res {
		if res2[i].Lambda != res[i].Lambda {
			t.Errorf("batch %d: resumed lambda %v vs %v", i, res2[i].Lambda, res[i].Lambda)
		}
	}
}

// assertSameStoreQueries requires two stores to answer an identical
// probe battery bit-for-bit: Lookup, radius neighbourhoods and capped
// nearest-k (values, distances, order).
func assertSameStoreQueries(t *testing.T, label string, a, b *store.Store, nv int) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: Len %d vs %d", label, a.Len(), b.Len())
	}
	for _, e := range a.Entries() {
		va, oka := a.Lookup(e.Config)
		vb, okb := b.Lookup(e.Config)
		if oka != okb || va != vb {
			t.Fatalf("%s: Lookup(%v): (%v,%v) vs (%v,%v)", label, e.Config, va, oka, vb, okb)
		}
	}
	r := rng.New(321)
	probe := make(space.Config, nv)
	for q := 0; q < 48; q++ {
		for i := range probe {
			probe[i] = int(r.Uint64() % 16)
		}
		for _, d := range []float64{2, 4} {
			na, nb := a.Neighbors(probe, d), b.Neighbors(probe, d)
			if na.Len() != nb.Len() {
				t.Fatalf("%s: Neighbors(%v,%v): %d vs %d hits", label, probe, d, na.Len(), nb.Len())
			}
			for i := 0; i < na.Len(); i++ {
				if na.Values[i] != nb.Values[i] || na.Dists[i] != nb.Dists[i] {
					t.Fatalf("%s: Neighbors(%v,%v) hit %d: (%v,%v) vs (%v,%v)",
						label, probe, d, i, na.Values[i], na.Dists[i], nb.Values[i], nb.Dists[i])
				}
			}
			ka, kb := a.NearestK(probe, d, 5), b.NearestK(probe, d, 5)
			if ka.Len() != kb.Len() {
				t.Fatalf("%s: NearestK(%v,%v): %d vs %d hits", label, probe, d, ka.Len(), kb.Len())
			}
			for i := 0; i < ka.Len(); i++ {
				if ka.Values[i] != kb.Values[i] || ka.Dists[i] != kb.Dists[i] {
					t.Fatalf("%s: NearestK(%v,%v) hit %d differs", label, probe, d, i)
				}
			}
		}
	}
}

// TestPreloadRestorePropertyRoundTrip is the persistence property test:
// for a range of randomized campaigns — including versioned overwrites —
// saving the live trace, loading it back and preloading it into a fresh
// evaluator yields a support store whose
// queries are bit-identical to the live store's. Trace order carries the
// overwrite winners, so replay through Preload's bulk path must land on
// the same values the overwrite path produced live.
func TestPreloadRestorePropertyRoundTrip(t *testing.T) {
	const nv = 3
	for seed := uint64(1); seed <= 6; seed++ {
		seed := seed
		r := rng.New(seed)
		live := store.New()
		var trace Trace
		var history []space.Config
		steps := 80 + int(seed)*17
		for i := 0; i < steps; i++ {
			var c space.Config
			overwrite := i%6 == 5 && len(history) > 0
			if overwrite {
				c = history[r.Uint64()%uint64(len(history))]
			} else {
				c = make(space.Config, nv)
				for j := range c {
					c[j] = int(r.Uint64() % 16)
				}
				history = append(history, c)
			}
			lam := -r.Float64()
			live.Add(c, lam)
			trace = append(trace, TracePoint{Config: c.Clone(), Lambda: lam})
		}

		var buf bytes.Buffer
		if err := SaveTrace(&buf, trace); err != nil {
			t.Fatal(err)
		}
		var calls atomic.Int64
		ev, err := New(countingSim(nv, &calls), Options{D: 2})
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadTrace(&buf)
		if err != nil {
			t.Fatalf("seed %d: LoadTrace: %v", seed, err)
		}
		ev.Preload(loaded.Entries())
		assertSameStoreQueries(t, "restored", live, ev.Store(), nv)
		if calls.Load() != 0 {
			t.Fatalf("seed %d: Preload simulated %d times", seed, calls.Load())
		}
	}
}

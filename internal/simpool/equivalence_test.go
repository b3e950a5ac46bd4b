package simpool_test

import (
	"context"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/evaluator"
	"repro/internal/simpool"
	"repro/internal/space"
)

// Twin-run equivalence: the pooled remote simulator must be
// observationally identical to in-process simulation. Same seeded
// campaign on both → bit-identical store contents, bit-identical
// results, identical NSim. Hedged duplicates are insurance paid below
// the evaluator and must never leak into its accounting.

// campaignConfigs builds a deterministic mixed campaign: mostly
// distinct configs with a sprinkle of repeats (exact-hit territory).
func campaignConfigs(seed int64, n int) []space.Config {
	rng := rand.New(rand.NewSource(seed))
	cfgs := make([]space.Config, 0, n)
	for len(cfgs) < n {
		if len(cfgs) > 4 && rng.Intn(5) == 0 {
			cfgs = append(cfgs, cfgs[rng.Intn(len(cfgs))]) // repeat
			continue
		}
		cfgs = append(cfgs, space.Config{2 + rng.Intn(15), 2 + rng.Intn(15), 2 + rng.Intn(15)})
	}
	return cfgs
}

// batchConfigs is campaignConfigs restricted to batch-internal
// uniqueness. A config duplicated INSIDE one parallel batch is only
// coalesced when its occurrences are claimed concurrently — otherwise
// it legitimately re-simulates (see EvaluateAll's contract) — so its
// NSim charge depends on simulator latency. Keeping each parallel batch
// duplicate-free keeps the twin runs' NSim comparable; duplicates
// ACROSS batches and in the sequential phase stay, and resolve
// deterministically from the committed store.
func batchConfigs(seed int64, n int) []space.Config {
	seen := make(map[string]bool, n)
	out := make([]space.Config, 0, n)
	for _, cfg := range campaignConfigs(seed, 2*n) {
		if seen[cfg.Key()] {
			continue
		}
		seen[cfg.Key()] = true
		if out = append(out, cfg); len(out) == n {
			break
		}
	}
	return out
}

// runCampaign drives the same mixed campaign (sequential singles, then
// parallel batches) through an evaluator and returns results + store
// snapshot + stats.
func runCampaign(t *testing.T, ev *evaluator.Evaluator) ([]evaluator.Result, map[string]float64, evaluator.Stats) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var results []evaluator.Result
	for _, cfg := range campaignConfigs(11, 24) {
		res, err := ev.EvaluateContext(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for batch := int64(0); batch < 3; batch++ {
		rs, err := ev.EvaluateAllContext(ctx, batchConfigs(100+batch, 24), 6)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, rs...)
	}
	stored := make(map[string]float64)
	for _, e := range ev.Store().Entries() {
		if _, dup := stored[e.Config.Key()]; dup {
			t.Fatalf("store holds duplicate entry for %v", e.Config)
		}
		stored[e.Config.Key()] = e.Lambda
	}
	return results, stored, ev.Stats()
}

func krigingOpts() evaluator.Options {
	return evaluator.Options{
		D:           3,
		NnMin:       1,
		MaxSupport:  10,
		Transform:   evaluator.NegPowerToDB,
		Untransform: evaluator.DBToNegPower,
	}
}

func TestTwinRunEquivalence(t *testing.T) {
	const seed = 42

	// In-process twin.
	local, err := evaluator.New(sleepSim(seed), krigingOpts())
	if err != nil {
		t.Fatal(err)
	}
	wantRes, wantStore, wantStats := runCampaign(t, local)

	// Remote twin: three pooled workers over the same simulator, with
	// hedging live so its duplicates are part of the run.
	specs := make([]simpool.WorkerSpec, 3)
	for i := range specs {
		w := simpool.NewWorker(simpool.WorkerOptions{Sim: sleepSim(seed), Key: "tw1n", Capacity: 4})
		srv := httptest.NewServer(w.Handler())
		defer srv.Close()
		specs[i] = simpool.WorkerSpec{URL: srv.URL, Key: "tw1n"}
	}
	pool, err := simpool.NewPool(simpool.Options{
		Workers:      specs,
		Nv:           3,
		PerWorkerCap: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pool.PinHedgeAfter(time.Millisecond) // aggressive: force hedged duplicates
	remote, err := evaluator.New(pool, krigingOpts())
	if err != nil {
		t.Fatal(err)
	}
	gotRes, gotStore, gotStats := runCampaign(t, remote)

	// Results: bit-identical λ, same source and support for every query.
	if len(gotRes) != len(wantRes) {
		t.Fatalf("result count %d != %d", len(gotRes), len(wantRes))
	}
	for i := range wantRes {
		w, g := wantRes[i], gotRes[i]
		if math.Float64bits(g.Lambda) != math.Float64bits(w.Lambda) {
			t.Fatalf("result %d: remote λ %v != local λ %v", i, g.Lambda, w.Lambda)
		}
		if g.Source != w.Source || g.Neighbors != w.Neighbors {
			t.Fatalf("result %d: remote (%v,%d) != local (%v,%d)", i, g.Source, g.Neighbors, w.Source, w.Neighbors)
		}
	}

	// Store: bit-identical contents.
	if len(gotStore) != len(wantStore) {
		t.Fatalf("store size %d != %d", len(gotStore), len(wantStore))
	}
	for k, w := range wantStore {
		g, ok := gotStore[k]
		if !ok {
			t.Fatalf("remote store missing %s", k)
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("store %s: remote λ %v != local λ %v", k, g, w)
		}
	}

	// Accounting: NSim identical; hedged duplicates live only in the
	// pool's own counters.
	if gotStats.NSim != wantStats.NSim || gotStats.NInterp != wantStats.NInterp {
		t.Fatalf("remote stats (sim=%d interp=%d) != local (sim=%d interp=%d)",
			gotStats.NSim, gotStats.NInterp, wantStats.NSim, wantStats.NInterp)
	}
	ps := pool.Stats()
	if int(ps.NRemoteSims) < gotStats.NSim {
		t.Fatalf("NRemoteSims = %d < NSim = %d: remote successes unaccounted", ps.NRemoteSims, gotStats.NSim)
	}
	if extra := int(ps.NRemoteSims) - gotStats.NSim; extra > 0 {
		t.Logf("hedge insurance: %d duplicate remote sims (NHedged=%d) beyond %d engine sims",
			extra, ps.NHedged, gotStats.NSim)
	}
}

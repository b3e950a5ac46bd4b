package bench

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/evaluator"
	"repro/internal/simpool"
	"repro/internal/space"
)

// TestOverloadSweepGoodput is the chaos acceptance gate for
// deadline-aware shedding: under saturation (clients >> slots, deadlines
// barely above one simulation) the shedding arm must deliver at least
// twice the goodput of the no-shedding ablation, keep every response
// bounded near the deadline, never let a request die parked on the
// admission queue, and account for every shed exactly.
func TestOverloadSweepGoodput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive saturation scenario")
	}
	ctx := context.Background()
	base := OverloadOptions{
		Clients:    32,
		MaxSims:    4,
		SimLatency: 20 * time.Millisecond,
		Deadline:   35 * time.Millisecond,
		Duration:   time.Second,
		Seed:       1,
	}

	shed, err := OverloadSweep(ctx, base)
	if err != nil {
		t.Fatalf("shed arm: %v", err)
	}
	ablation := base
	ablation.DisableShedding = true
	noshed, err := OverloadSweep(ctx, ablation)
	if err != nil {
		t.Fatalf("no-shed arm: %v", err)
	}
	t.Logf("\n%s", RenderOverload([]OverloadResult{shed, noshed}))

	if shed.Other != 0 || noshed.Other != 0 {
		t.Fatalf("unexplained outcomes: shed %d, noshed %d", shed.Other, noshed.Other)
	}
	// Saturation sanity: the clients offered several times the sim
	// capacity of the window on both arms.
	capacity := float64(base.MaxSims) * base.Duration.Seconds() / base.SimLatency.Seconds()
	for _, r := range []OverloadResult{shed, noshed} {
		if float64(r.Offered) < 2*capacity {
			t.Fatalf("arm shedding=%v offered %d requests, want >= 2x capacity %.0f",
				r.Shedding, r.Offered, capacity)
		}
	}
	if shed.Goodput == 0 {
		t.Fatal("shed arm delivered zero goodput")
	}
	if ratio := shed.GoodputRate() / max(noshed.GoodputRate(), 1e-9); ratio < 2 {
		t.Errorf("goodput(shed)/goodput(noshed) = %.2f, want >= 2 (shed %d, noshed %d)",
			ratio, shed.Goodput, noshed.Goodput)
	}
	// With shedding, no request may expire while parked on the
	// admission queue: the shedder refuses anything whose deadline
	// cannot cover the estimated wait before it parks.
	if shed.Stats.NQueueExpired != 0 {
		t.Errorf("shed arm: %d requests expired in the admission queue, want 0",
			shed.Stats.NQueueExpired)
	}
	if noshed.Stats.NShed != 0 {
		t.Errorf("ablation arm shed %d requests with shedding disabled", noshed.Stats.NShed)
	}
	// Exact accounting: every client-observed shed is one NShed, and
	// the ablation must see queue expiries (that is the pathology).
	if shed.Shed != shed.Stats.NShed {
		t.Errorf("client-observed sheds %d != Stats.NShed %d", shed.Shed, shed.Stats.NShed)
	}
	if noshed.Stats.NQueueExpired == 0 {
		t.Error("ablation arm shows zero queue expiries; the scenario is not saturating")
	}
	// Bounded tail: a shed is instant and an admitted request finishes
	// within its deadline plus at most one non-abortable simulation.
	if limit := base.Deadline + base.SimLatency; shed.P99 > limit {
		t.Errorf("shed arm p99 %v exceeds %v", shed.P99, limit)
	}
}

// killSwitch fronts a worker handler with an outage switch: while down,
// every request fails with 503, /healthz included, so the pool sees a
// dead worker and its readmission probes fail too.
type killSwitch struct {
	next http.Handler
	down atomic.Bool
}

func (k *killSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.down.Load() {
		http.Error(w, "worker down", http.StatusServiceUnavailable)
		return
	}
	k.next.ServeHTTP(w, r)
}

// TestBrownoutOutage drives the full degradation ladder over a real
// remote pool: a healthy warmup builds kriging support, a fleet outage
// fails the first request with ErrNoWorkers and latches the pool down,
// a strict request then fast-fails with the typed UnavailableError, a
// brownout-opted request gets a degraded surrogate answer bit-identical
// to the normal interpolation pipeline over the same store, and
// reviving the fleet lets the same pool recover through a probe.
func TestBrownoutOutage(t *testing.T) {
	ctx := context.Background()
	var switches []*killSwitch
	var specs []simpool.WorkerSpec
	for i := 0; i < 2; i++ {
		w := simpool.NewWorker(simpool.WorkerOptions{Sim: &SleepSimulator{NumVars: 3, Seed: 7}, Capacity: 2})
		k := &killSwitch{next: w.Handler()}
		srv := httptest.NewServer(k)
		t.Cleanup(srv.Close)
		switches = append(switches, k)
		specs = append(specs, simpool.WorkerSpec{URL: srv.URL})
	}
	pool, err := simpool.NewPool(simpool.Options{
		Workers:   specs,
		Nv:        3,
		RetryBase: time.Millisecond,
		RetryMax:  5 * time.Millisecond,
		ProbeBase: 5 * time.Millisecond,
		ProbeMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	// NnMin 3 with two warm points means the query below FAILS the
	// normal interpolation gate and must reach the simulation tier —
	// where the pool being down forces the brownout decision.
	ev, err := evaluator.New(pool, evaluator.Options{D: 3, NnMin: 3, MaxSupport: 10})
	if err != nil {
		t.Fatal(err)
	}
	engine := ev.Engine(2)

	warm := []space.Config{{4, 4, 4}, {4, 4, 5}}
	for _, cfg := range warm {
		res, err := engine.Evaluate(ctx, cfg)
		if err != nil {
			t.Fatalf("warmup %v: %v", cfg, err)
		}
		if res.Source != evaluator.Simulated {
			t.Fatalf("warmup %v: source %v, want Simulated", cfg, res.Source)
		}
	}

	// Outage: the first request walks the retry ladder to ErrNoWorkers,
	// which latches the pool down.
	for _, k := range switches {
		k.down.Store(true)
	}
	_, err = engine.Evaluate(ctx, space.Config{10, 10, 10})
	var ue *simpool.UnavailableError
	if !errors.Is(err, simpool.ErrNoWorkers) || errors.As(err, &ue) {
		t.Fatalf("first request during outage: err = %v, want plain ErrNoWorkers", err)
	}

	query := space.Config{4, 5, 4} // two warm neighbours within D, below NnMin

	// A strict request fails fast and typed; no degraded value leaks to
	// callers that did not opt in.
	start := time.Now()
	_, err = engine.Evaluate(ctx, query)
	if !errors.As(err, &ue) || !errors.Is(err, simpool.ErrNoWorkers) {
		t.Fatalf("strict request during outage: err = %v, want UnavailableError", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("strict fast-fail took %v (not a fast fail)", elapsed)
	}

	// The brownout-opted request gets a degraded surrogate answer.
	storeLen := ev.Store().Len()
	res, err := engine.EvaluateWith(ctx, query, evaluator.RequestOptions{AllowDegraded: true})
	if err != nil {
		t.Fatalf("degraded request: %v", err)
	}
	if !res.Degraded || res.Source != evaluator.Interpolated {
		t.Fatalf("degraded request: got %+v, want Degraded Interpolated", res)
	}
	if res.Neighbors != len(warm) {
		t.Errorf("degraded support %d neighbours, want %d", res.Neighbors, len(warm))
	}
	if ev.Store().Len() != storeLen {
		t.Errorf("degraded answer changed the store: %d -> %d entries", storeLen, ev.Store().Len())
	}

	// Bit-identical check: a twin evaluator over the SAME entries whose
	// gates the query passes (NnMin 1) must produce the same λ through
	// the normal pipeline — degraded serving only waives gates, it never
	// changes the prediction.
	twin, err := evaluator.New(&SleepSimulator{NumVars: 3, Seed: 7},
		evaluator.Options{D: 3, NnMin: 1, MaxSupport: 10})
	if err != nil {
		t.Fatal(err)
	}
	twin.Preload(ev.Store().Entries())
	want, err := twin.EvaluateContext(ctx, query)
	if err != nil {
		t.Fatalf("twin prediction: %v", err)
	}
	if want.Source != evaluator.Interpolated {
		t.Fatalf("twin answered from %v, want Interpolated", want.Source)
	}
	if res.Lambda != want.Lambda {
		t.Errorf("degraded λ %v != normal-pipeline λ %v (must be bit-identical)",
			res.Lambda, want.Lambda)
	}

	// Observability: the brownout and the outage are both on the books.
	if n := ev.Stats().NDegraded; n != 1 {
		t.Errorf("NDegraded = %d, want 1", n)
	}
	for _, w := range pool.Stats().Workers {
		if !w.Quarantined {
			t.Errorf("worker %s not quarantined during the outage", w.URL)
		}
	}

	// Recovery: revive the fleet; a readmission probe clears the latch
	// and the same pool serves real simulations again.
	for _, k := range switches {
		k.down.Store(false)
	}
	deadline := time.Now().Add(5 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		res, err := engine.Evaluate(ctx, space.Config{6, 6, 6})
		if err == nil && res.Source == evaluator.Simulated {
			recovered = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("pool never recovered after the fleet revived")
	}
}

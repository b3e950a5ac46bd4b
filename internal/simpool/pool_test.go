package simpool

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/space"
)

func TestParseWorkerSpec(t *testing.T) {
	cases := []struct {
		in      string
		url     string
		key     string
		wantErr bool
	}{
		{"http://simd1:9090:s3cret", "http://simd1:9090", "s3cret", false},
		{"http://simd1:9090", "http://simd1:9090", "", false},
		{"http://simd1", "http://simd1", "", false},
		{"https://sim.example.com:8443:k-1", "https://sim.example.com:8443", "k-1", false},
		{"http://127.0.0.1:9090:abc123", "http://127.0.0.1:9090", "abc123", false},
		{"  http://simd1:9090/ ", "http://simd1:9090", "", false},
		{"simd1:9090", "", "", true}, // no scheme
		{"", "", "", true},
	}
	for _, c := range cases {
		spec, err := ParseWorkerSpec(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseWorkerSpec(%q) = %+v, want error", c.in, spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseWorkerSpec(%q): %v", c.in, err)
			continue
		}
		if spec.URL != c.url || spec.Key != c.key {
			t.Errorf("ParseWorkerSpec(%q) = {%q %q}, want {%q %q}", c.in, spec.URL, spec.Key, c.url, c.key)
		}
	}
	specs, err := ParseWorkerSpecs("http://a:1:k1, http://b:2:k2 ,")
	if err != nil || len(specs) != 2 || specs[1].URL != "http://b:2" || specs[1].Key != "k2" {
		t.Fatalf("ParseWorkerSpecs = %+v, %v", specs, err)
	}
}

// startWorkers boots n httptest servers each wrapping a fresh Worker
// over a stubSim, and returns their specs plus the sims.
func startWorkers(t *testing.T, n int, key string, mk func(i int) *stubSim) ([]WorkerSpec, []*stubSim) {
	t.Helper()
	specs := make([]WorkerSpec, n)
	sims := make([]*stubSim, n)
	for i := 0; i < n; i++ {
		sims[i] = mk(i)
		w := NewWorker(WorkerOptions{Sim: sims[i], Key: key, Capacity: 4})
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		specs[i] = WorkerSpec{URL: srv.URL, Key: key}
	}
	return specs, sims
}

func newTestPool(t *testing.T, opts Options) *Pool {
	t.Helper()
	if opts.Nv == 0 {
		opts.Nv = 3
	}
	p, err := NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestPoolEvaluate(t *testing.T) {
	specs, sims := startWorkers(t, 2, "k3y", func(int) *stubSim { return &stubSim{} })
	p := newTestPool(t, Options{Workers: specs})

	cfg := space.Config{2, 3, 4}
	lam, err := p.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := stubLambda(cfg); lam != want {
		t.Fatalf("lambda = %v, want %v", lam, want)
	}
	if got := sims[0].calls.Load() + sims[1].calls.Load(); got != 1 {
		t.Fatalf("simulator calls = %d, want 1", got)
	}
	nr, nh, nt, nq := p.RemoteSimCounts()
	if nr != 1 || nh != 0 || nt != 0 || nq != 0 {
		t.Fatalf("counts = %d %d %d %d, want 1 0 0 0", nr, nh, nt, nq)
	}
	if got := p.Nv(); got != 3 {
		t.Fatalf("Nv = %d, want 3", got)
	}
	if _, err := p.Evaluate(space.Config{1, 2}); err == nil {
		t.Fatal("wrong-dims Evaluate succeeded")
	}
}

// TestPoolSpreadsLoad holds simulations open and checks least-loaded
// dispatch lands concurrent configs on different workers.
func TestPoolSpreadsLoad(t *testing.T) {
	release := make(chan struct{})
	specs, sims := startWorkers(t, 2, "", func(int) *stubSim {
		return &stubSim{entered: make(chan struct{}, 8), release: release}
	})
	p := newTestPool(t, Options{Workers: specs})
	p.PinHedgeAfter(-1)

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		cfg := space.Config{2 + i, 3, 4}
		go func() {
			_, err := p.Evaluate(cfg)
			errs <- err
		}()
	}
	// One simulation must enter each worker: least-loaded dispatch never
	// stacks a second config on a busy worker while an idle one exists.
	for _, sim := range sims {
		select {
		case <-sim.entered:
		case <-time.After(2 * time.Second):
			t.Fatal("a worker never received its share of the load")
		}
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// flake500 wraps a handler, answering 500 for the first n requests.
func flake500(n int64, next http.Handler) http.Handler {
	var served atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) <= n {
			http.Error(w, "injected", http.StatusInternalServerError)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// TestPoolRetryOnWorkerFailure: the first worker 500s, the pool
// quarantines it, requeues the config onto the second, and the query
// still succeeds with the exact result.
func TestPoolRetryOnWorkerFailure(t *testing.T) {
	bad := httptest.NewServer(flake500(1<<30, NewWorker(WorkerOptions{Sim: &stubSim{}}).Handler()))
	defer bad.Close()
	good := httptest.NewServer(NewWorker(WorkerOptions{Sim: &stubSim{}}).Handler())
	defer good.Close()
	// Both specs listed bad-first so the first dispatch (equal load)
	// lands on the bad worker deterministically.
	p := newTestPool(t, Options{
		Workers: []WorkerSpec{{URL: bad.URL}, {URL: good.URL}},
	})

	cfg := space.Config{5, 6, 7}
	lam, err := p.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := stubLambda(cfg); lam != want {
		t.Fatalf("lambda = %v, want %v", lam, want)
	}
	st := p.Stats()
	if st.NRequeued < 1 {
		t.Fatalf("NRequeued = %d, want >= 1 after a worker failure", st.NRequeued)
	}
	if !st.Workers[0].Quarantined {
		t.Fatalf("failing worker not quarantined: %+v", st.Workers[0])
	}
}

// TestPoolHedgesStragglers: worker 0 stalls forever; with no round-trip
// recorded yet the hedge fires after the cold-start delay and worker 1
// answers.
func TestPoolHedgesStragglers(t *testing.T) {
	stall := &stubSim{release: make(chan struct{})} // never released
	fast := &stubSim{}
	s0 := httptest.NewServer(NewWorker(WorkerOptions{Sim: stall}).Handler())
	defer s0.Close()
	s1 := httptest.NewServer(NewWorker(WorkerOptions{Sim: fast}).Handler())
	defer s1.Close()
	p := newTestPool(t, Options{Workers: []WorkerSpec{{URL: s0.URL}, {URL: s1.URL}}})

	start := time.Now()
	cfg := space.Config{2, 3, 4}
	done := make(chan struct{})
	var lam float64
	var err error
	go func() { lam, err = p.Evaluate(cfg); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("hedge never rescued the stalled query")
	}
	if err != nil {
		t.Fatal(err)
	}
	if want := stubLambda(cfg); lam != want {
		t.Fatalf("lambda = %v, want %v", lam, want)
	}
	if elapsed := time.Since(start); elapsed < coldHedgeAfter {
		t.Fatalf("rescued after %v, before the %v cold-start hedge delay", elapsed, coldHedgeAfter)
	}
	if _, nh, _, _ := p.RemoteSimCounts(); nh < 1 {
		t.Fatalf("NHedged = %d, want >= 1", nh)
	}
}

// TestHedgeAfterTracksP99 drives the hedge-delay derivation directly,
// without network or sleeps: the cold-start delay before any sample,
// then the shared helper's p99 over every worker's RTT ring, refreshed
// every hedgeRefresh recordings and cached in between, and still right
// after the rings wrap. The WorkerStats gauges come from the same helper.
func TestHedgeAfterTracksP99(t *testing.T) {
	p := newTestPool(t, Options{Workers: []WorkerSpec{{URL: "http://a.invalid"}, {URL: "http://b.invalid"}}})
	hedgeAfter := func() time.Duration {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.hedgeAfter
	}
	if got := hedgeAfter(); got != coldHedgeAfter {
		t.Fatalf("hedgeAfter with no samples = %v, want %v", got, coldHedgeAfter)
	}
	// Falling round-trips, so the early samples the rings evict are the
	// largest and a p99 over evicted samples would show.
	recorded := make([][]time.Duration, len(p.workers))
	// window is the helper's p99 over the last rttWindow samples of
	// each worker: what the rings should hold.
	window := func() time.Duration {
		var all []time.Duration
		for _, r := range recorded {
			all = append(all, r[max(0, len(r)-rttWindow):]...)
		}
		_, p99 := rttQuantiles(all)
		return p99
	}
	var cached time.Duration
	for n := 1; n <= 4*rttWindow+1; n++ {
		i := n % len(p.workers)
		rtt := time.Duration(5000-n) * time.Microsecond
		recorded[i] = append(recorded[i], rtt)
		p.mu.Lock()
		p.recordRTTLocked(p.workers[i], rtt)
		p.mu.Unlock()
		if n%hedgeRefresh == 1 {
			cached = window()
		}
		if got := hedgeAfter(); got != cached {
			t.Fatalf("after %d samples hedgeAfter = %v, want %v", n, got, cached)
		}
	}
	if recorded[0][0] <= cached {
		t.Fatal("test setup: the evicted samples do not exceed the window's p99")
	}
	st := p.Stats()
	for i, r := range recorded {
		_, p99 := rttQuantiles(append([]time.Duration(nil), r[len(r)-rttWindow:]...))
		if st.Workers[i].P99 != p99 {
			t.Errorf("worker %d P99 = %v, want %v", i, st.Workers[i].P99, p99)
		}
	}
}

// TestPoolDeadPoolFailsTyped: every worker is unreachable; the query
// must fail with ErrNoWorkers in bounded time — never hang. That walk
// of the ladder latches the pool down, so the next query fails in
// under 100ms with an UnavailableError that still matches ErrNoWorkers
// and hints the wait until the next probe.
func TestPoolDeadPoolFailsTyped(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // closed listener: connection refused
	p := newTestPool(t, Options{
		Workers:   []WorkerSpec{{URL: dead.URL}},
		RetryBase: time.Millisecond,
		RetryMax:  5 * time.Millisecond,
	})

	start := time.Now()
	_, err := p.Evaluate(space.Config{2, 3, 4})
	var ue *UnavailableError
	if !errors.Is(err, ErrNoWorkers) || errors.As(err, &ue) {
		t.Fatalf("err = %v, want plain ErrNoWorkers", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("dead pool took %v to fail", elapsed)
	}
	if !latched(p) {
		t.Fatal("exhausted ladder over a probed, fully quarantined fleet did not latch")
	}

	start = time.Now()
	_, err = p.Evaluate(space.Config{3, 4, 5})
	if elapsed := time.Since(start); elapsed >= 100*time.Millisecond {
		t.Fatalf("latched pool took %v to fail, want < 100ms", elapsed)
	}
	if !errors.As(err, &ue) || !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("latched query: err = %v, want *UnavailableError matching ErrNoWorkers", err)
	}
	if hint := ue.RetryAfterHint(); hint <= 0 || hint > defaultProbeMax {
		t.Fatalf("RetryAfterHint = %v, want in (0, %v]", hint, defaultProbeMax)
	}
}

// TestPoolSimulationErrorIsPermanent: a 422 from the worker is the
// simulator's own deterministic verdict — no retry, no quarantine.
func TestPoolSimulationErrorIsPermanent(t *testing.T) {
	specs, sims := startWorkers(t, 2, "", func(int) *stubSim {
		return &stubSim{fail: func(cfg space.Config) error {
			return errors.New("unstable filter")
		}}
	})
	// Hedging off: a hedge under a slow (race-instrumented) round trip
	// would duplicate the dispatch and break the exactly-once check.
	p := newTestPool(t, Options{Workers: specs})
	p.PinHedgeAfter(-1)

	_, err := p.Evaluate(space.Config{2, 3, 4})
	if !errors.Is(err, ErrSimulation) {
		t.Fatalf("err = %v, want ErrSimulation", err)
	}
	if calls := sims[0].calls.Load() + sims[1].calls.Load(); calls != 1 {
		t.Fatalf("simulator ran %d times, want exactly 1 (no retry of a deterministic failure)", calls)
	}
	for _, w := range p.Stats().Workers {
		if w.Quarantined {
			t.Fatalf("worker quarantined by a simulator error: %+v", w)
		}
	}
}

// TestPoolAuthFailureRoutesAround: a worker with the wrong key is
// quarantined (probing off) while the properly keyed worker serves.
func TestPoolAuthFailureRoutesAround(t *testing.T) {
	w0 := httptest.NewServer(NewWorker(WorkerOptions{Sim: &stubSim{}, Key: "other"}).Handler())
	defer w0.Close()
	w1 := httptest.NewServer(NewWorker(WorkerOptions{Sim: &stubSim{}, Key: "k3y"}).Handler())
	defer w1.Close()
	p := newTestPool(t, Options{
		Workers: []WorkerSpec{{URL: w0.URL, Key: "k3y"}, {URL: w1.URL, Key: "k3y"}},
	})

	cfg := space.Config{2, 3, 4}
	lam, err := p.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := stubLambda(cfg); lam != want {
		t.Fatalf("lambda = %v, want %v", lam, want)
	}
	st := p.Stats()
	if !st.Workers[0].Quarantined {
		t.Fatalf("key-rejecting worker not quarantined: %+v", st.Workers[0])
	}
}

// TestPoolProbeReadmitsWorker: a worker that 500s is quarantined, then
// readmitted by the health probe once it recovers, and serves again.
// The readmission lands inside the config's ladder, so the pool never
// latches down.
func TestPoolProbeReadmitsWorker(t *testing.T) {
	inner := NewWorker(WorkerOptions{Sim: &stubSim{}})
	srv := httptest.NewServer(flake500(3, inner.Handler()))
	defer srv.Close()
	p := newTestPool(t, Options{
		Workers:   []WorkerSpec{{URL: srv.URL}},
		RetryBase: time.Millisecond,
		ProbeBase: 2 * time.Millisecond,
		ProbeMax:  10 * time.Millisecond,
		// Generous budget: the config must survive quarantine rounds
		// until the probe readmits the worker.
		MaxAttempts: 50,
	})

	cfg := space.Config{2, 3, 4}
	lam, err := p.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := stubLambda(cfg); lam != want {
		t.Fatalf("lambda = %v, want %v", lam, want)
	}
	if _, _, nt, _ := p.RemoteSimCounts(); nt < 1 {
		t.Fatalf("NRetried = %d, want >= 1", nt)
	}
	if latched(p) {
		t.Fatal("a readmission inside the ladder latched the pool")
	}
}

func TestPoolContextCancel(t *testing.T) {
	stall := &stubSim{release: make(chan struct{})}
	s0 := httptest.NewServer(NewWorker(WorkerOptions{Sim: stall}).Handler())
	defer s0.Close()
	p := newTestPool(t, Options{Workers: []WorkerSpec{{URL: s0.URL}}})
	p.PinHedgeAfter(-1)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := p.EvaluateContext(ctx, space.Config{2, 3, 4})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestPoolClosed(t *testing.T) {
	specs, _ := startWorkers(t, 1, "", func(int) *stubSim { return &stubSim{} })
	p, err := NewPool(Options{Workers: specs, Nv: 3})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	if _, err := p.Evaluate(space.Config{2, 3, 4}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
}

// TestPoolWrongBenchmarkStaysQuarantined: the probe must not readmit a
// live worker serving a different benchmark (Nv mismatch).
func TestPoolWrongBenchmarkStaysQuarantined(t *testing.T) {
	// The worker's /healthz is perfectly healthy but reports Nv=3; the
	// pool expects Nv=5, so after the (cross-dimension) simulate request
	// fails, the probe must keep the worker out rather than readmit it.
	inner := NewWorker(WorkerOptions{Sim: &stubSim{}}).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			inner.ServeHTTP(w, r)
			return
		}
		http.Error(w, "injected", http.StatusInternalServerError)
	}))
	defer srv.Close()
	p := newTestPool(t, Options{
		Nv:        5,
		Workers:   []WorkerSpec{{URL: srv.URL}},
		RetryBase: time.Millisecond,
		RetryMax:  2 * time.Millisecond,
		ProbeBase: time.Millisecond,
	})
	_, err := p.Evaluate(space.Config{1, 2, 3, 4, 5})
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
	if st := p.Stats(); !st.Workers[0].Quarantined {
		t.Fatal("mismatched worker was readmitted")
	}
}

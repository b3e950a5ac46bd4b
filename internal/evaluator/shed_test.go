package evaluator

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/space"
)

// holdSim is a simulator whose evaluations block until released —
// deterministic occupancy control for admission tests.
type holdSim struct {
	nv      int
	release chan struct{}
	calls   atomic.Int64
}

func (s *holdSim) Nv() int { return s.nv }

func (s *holdSim) Evaluate(cfg space.Config) (float64, error) {
	return s.EvaluateContext(context.Background(), cfg)
}

func (s *holdSim) EvaluateContext(ctx context.Context, cfg space.Config) (float64, error) {
	s.calls.Add(1)
	select {
	case <-s.release:
		return -float64(cfg[0]), nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// TestAdmitRejectsExpiredContext is the admission-race regression test:
// a request whose context is already dead must never claim a slot, never
// reach the simulator, and never move NSim — even when a slot is free.
func TestAdmitRejectsExpiredContext(t *testing.T) {
	sim := &holdSim{nv: 1, release: make(chan struct{})}
	close(sim.release) // simulator answers instantly if (wrongly) reached
	ev, err := New(sim, Options{})
	if err != nil {
		t.Fatal(err)
	}
	engine := ev.Engine(2)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 5; i++ {
		if _, err := engine.Evaluate(ctx, space.Config{i}); !errors.Is(err, context.Canceled) {
			t.Fatalf("expired request %d: err = %v, want context.Canceled", i, err)
		}
	}
	if n := sim.calls.Load(); n != 0 {
		t.Errorf("expired requests reached the simulator %d times", n)
	}
	if st := ev.Stats(); st.NSim != 0 {
		t.Errorf("NSim = %d after pre-expired requests, want 0", st.NSim)
	}
	// The engine stays fully usable: no slot leaked to a dead request.
	if _, err := engine.Evaluate(context.Background(), space.Config{9}); err != nil {
		t.Fatalf("follow-up evaluation: %v", err)
	}
	if st := ev.Stats(); st.NSim != 1 {
		t.Errorf("follow-up NSim = %d, want 1", st.NSim)
	}
}

// TestShedDoomedRequest fills the admission slots, primes the latency
// estimate, and checks that a request whose deadline cannot cover the
// estimated wait is refused with the typed overload error — immediately,
// with a usable Retry-After hint, and with exact NShed accounting.
func TestShedDoomedRequest(t *testing.T) {
	sim := &holdSim{nv: 1, release: make(chan struct{})}
	ev, err := New(sim, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Prime the EWMA: pretend simulations take 50ms.
	ev.observeSimLatency(50 * time.Millisecond)
	engine := ev.Engine(1)

	// Occupy the single slot with a blocked evaluation.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		engine.Evaluate(context.Background(), space.Config{1})
	}()
	waitUntil(t, func() bool { return engine.ActiveSims() == 1 })

	// 10ms of deadline cannot cover ~100ms of estimated wait.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = engine.Evaluate(ctx, space.Config{2})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("err %T does not unwrap to *OverloadError", err)
	}
	if oe.EstimatedWait <= 0 {
		t.Errorf("EstimatedWait = %v, want > 0", oe.EstimatedWait)
	}
	if oe.RetryAfterHint() != oe.EstimatedWait {
		t.Errorf("RetryAfterHint %v != EstimatedWait %v", oe.RetryAfterHint(), oe.EstimatedWait)
	}
	if elapsed > 5*time.Millisecond {
		t.Errorf("shed took %v, want microseconds", elapsed)
	}
	if st := ev.Stats(); st.NShed != 1 || st.NQueueExpired != 0 {
		t.Errorf("NShed = %d, NQueueExpired = %d; want 1, 0", st.NShed, st.NQueueExpired)
	}

	close(sim.release)
	wg.Wait()
}

// TestNoShedWithoutEvidence checks the shedder's two opt-outs: a request
// without a deadline is never shed (it parks), and a cold engine (no
// latency estimate yet) parks even doomed-looking requests — shedding
// needs evidence.
func TestNoShedWithoutEvidence(t *testing.T) {
	sim := &holdSim{nv: 1, release: make(chan struct{})}
	ev, err := New(sim, Options{})
	if err != nil {
		t.Fatal(err)
	}
	engine := ev.Engine(1) // cold: no EWMA yet

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		engine.Evaluate(context.Background(), space.Config{1})
	}()
	waitUntil(t, func() bool { return engine.ActiveSims() == 1 })

	// Cold engine: a short-deadline request parks and expires in the
	// queue rather than being shed on a guess.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := engine.Evaluate(ctx, space.Config{2}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cold-engine err = %v, want DeadlineExceeded", err)
	}
	st := ev.Stats()
	if st.NShed != 0 {
		t.Errorf("cold engine shed %d requests", st.NShed)
	}
	if st.NQueueExpired != 1 {
		t.Errorf("NQueueExpired = %d, want 1", st.NQueueExpired)
	}

	// DisableShedding: even a warm engine with a doomed deadline parks.
	ev2, err := New(&holdSim{nv: 1, release: sim.release}, Options{DisableShedding: true})
	if err != nil {
		t.Fatal(err)
	}
	ev2.observeSimLatency(50 * time.Millisecond)
	engine2 := ev2.Engine(1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		engine2.Evaluate(context.Background(), space.Config{1})
	}()
	waitUntil(t, func() bool { return engine2.ActiveSims() == 1 })
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	if _, err := engine2.Evaluate(ctx2, space.Config{2}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DisableShedding err = %v, want DeadlineExceeded", err)
	}
	if st := ev2.Stats(); st.NShed != 0 {
		t.Errorf("DisableShedding shed %d requests", st.NShed)
	}

	close(sim.release)
	wg.Wait()
}

// TestSimLatencyEWMA pins the estimator arithmetic: the first sample
// seeds directly, later samples move by 1/8 of the difference, and
// failed simulations never feed it.
func TestSimLatencyEWMA(t *testing.T) {
	ev, err := New(SimulatorFunc{NumVars: 1, Fn: func(cfg space.Config) (float64, error) {
		return 0, nil
	}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ev.SimLatencyEstimate(); got != 0 {
		t.Fatalf("cold estimate = %v, want 0", got)
	}
	ev.observeSimLatency(80 * time.Millisecond)
	if got := ev.SimLatencyEstimate(); got != 80*time.Millisecond {
		t.Fatalf("seeded estimate = %v, want 80ms", got)
	}
	ev.observeSimLatency(160 * time.Millisecond)
	if got := ev.SimLatencyEstimate(); got != 90*time.Millisecond {
		t.Fatalf("estimate after 160ms sample = %v, want 90ms (80 + 80/8)", got)
	}
}

// unavailableSim always fails with an error shaped like a pool that is
// latched down (it carries RetryAfterHint), so brownout eligibility can
// be tested without the pool.
type unavailableSim struct{ nv int }

type testUnavailableErr struct{}

func (testUnavailableErr) Error() string                 { return "test: sim unavailable" }
func (testUnavailableErr) RetryAfterHint() time.Duration { return time.Second }
func (s *unavailableSim) Nv() int                        { return s.nv }
func (s *unavailableSim) Evaluate(space.Config) (float64, error) {
	return 0, testUnavailableErr{}
}

// TestDegradedAnswer covers the brownout contract end to end: an
// opted-in request over a store with in-radius support gets an
// interpolated answer flagged Degraded, nothing is inserted, only
// NDegraded moves, and the same request without the opt-in surfaces the
// capacity error unchanged. Requests with no support at all also get
// the raw error — a degraded answer is never invented.
func TestDegradedAnswer(t *testing.T) {
	ev, err := New(&unavailableSim{nv: 2}, Options{D: 2, NnMin: 3, MaxSupport: 8})
	if err != nil {
		t.Fatal(err)
	}
	ev.Store().Add(space.Config{4, 4}, -1.0)
	ev.Store().Add(space.Config{4, 5}, -2.0)
	engine := ev.Engine(1)
	query := space.Config{5, 4} // 2 in-radius neighbours < NnMin 3

	// Strict request: the unavailability error passes through.
	if _, err := engine.Evaluate(context.Background(), query); err == nil {
		t.Fatal("strict request succeeded against an unavailable simulator")
	} else if !errors.As(err, new(testUnavailableErr)) {
		t.Fatalf("strict err = %v, want the simulator's unavailable error", err)
	}

	// Opted-in request: degraded interpolation over the live store.
	storeLen := ev.Store().Len()
	res, err := engine.EvaluateWith(context.Background(), query, RequestOptions{AllowDegraded: true})
	if err != nil {
		t.Fatalf("degraded request: %v", err)
	}
	if !res.Degraded || res.Source != Interpolated || res.Neighbors != 2 {
		t.Fatalf("degraded result = %+v, want Degraded Interpolated with 2 neighbours", res)
	}
	if ev.Store().Len() != storeLen {
		t.Errorf("degraded answer grew the store: %d -> %d", storeLen, ev.Store().Len())
	}
	st := ev.Stats()
	if st.NDegraded != 1 {
		t.Errorf("NDegraded = %d, want 1", st.NDegraded)
	}
	if st.NInterp != 0 {
		t.Errorf("NInterp = %d, want 0 — degraded answers are not normal interpolations", st.NInterp)
	}

	// No support anywhere near: the opt-in cannot conjure an answer.
	if _, err := engine.EvaluateWith(context.Background(), space.Config{16, 16},
		RequestOptions{AllowDegraded: true}); err == nil {
		t.Fatal("degraded answer invented without any support")
	}
	if st := ev.Stats(); st.NDegraded != 1 {
		t.Errorf("NDegraded moved to %d on an unanswerable request", st.NDegraded)
	}
}

// TestDegradedNeverFeedsOptimisers pins the strictness boundary: the
// batch path and the engine oracle run with zero RequestOptions, so a
// capacity failure surfaces as an error — never as a silent degraded
// value a min+1 walk would commit to.
func TestDegradedNeverFeedsOptimisers(t *testing.T) {
	ev, err := New(&unavailableSim{nv: 2}, Options{D: 2, NnMin: 3, MaxSupport: 8})
	if err != nil {
		t.Fatal(err)
	}
	ev.Store().Add(space.Config{4, 4}, -1.0)
	ev.Store().Add(space.Config{4, 5}, -2.0)
	engine := ev.Engine(1)
	query := space.Config{5, 4}

	if _, err := engine.Oracle().Evaluate(context.Background(), query); err == nil {
		t.Error("engine oracle accepted a degraded answer")
	}
	if _, err := ev.EvaluateAllContext(context.Background(), []space.Config{query}, 1); err == nil {
		t.Error("batch path accepted a degraded answer")
	}
	if st := ev.Stats(); st.NDegraded != 0 {
		t.Errorf("NDegraded = %d through optimiser-facing paths, want 0", st.NDegraded)
	}
}

// waitUntil polls cond for up to 2s.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRetryAfter pins the one capacity-refusal marker: a wrapped error
// carrying RetryAfterHint is a refusal with that hint, anything else is
// not.
func TestRetryAfter(t *testing.T) {
	cases := []struct {
		err  error
		want time.Duration
		ok   bool
	}{
		{fmt.Errorf("shed: %w", &OverloadError{EstimatedWait: 3 * time.Second}), 3 * time.Second, true},
		{fmt.Errorf("sim: %w", testUnavailableErr{}), time.Second, true},
		{ErrOverloaded, 0, false},
		{errors.New("simulator crashed"), 0, false},
		{nil, 0, false},
	}
	for _, c := range cases {
		got, ok := RetryAfter(c.err)
		if got != c.want || ok != c.ok {
			t.Errorf("RetryAfter(%v) = %v, %v; want %v, %v", c.err, got, ok, c.want, c.ok)
		}
	}
}

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

// slowSim builds a ctx-oblivious simulator that sleeps for latency and
// counts its invocations.
func slowSim(nv int, latency time.Duration, calls *atomic.Int64) SimulatorFunc {
	return SimulatorFunc{
		NumVars: nv,
		Fn: func(cfg space.Config) (float64, error) {
			calls.Add(1)
			time.Sleep(latency)
			return -float64(cfg[0]), nil
		},
	}
}

// slowCtxSim is slowSim with a cancellable sleep.
func slowCtxSim(nv int, latency time.Duration, calls *atomic.Int64) ContextSimulatorFunc {
	return ContextSimulatorFunc{
		NumVars: nv,
		Fn: func(ctx context.Context, cfg space.Config) (float64, error) {
			calls.Add(1)
			select {
			case <-time.After(latency):
			case <-ctx.Done():
				return 0, ctx.Err()
			}
			return -float64(cfg[0]), nil
		},
	}
}

// TestEvaluateAllContextCancelPrompt cancels a batch over a slow,
// ctx-oblivious simulator mid-run and checks the three cancellation
// promises: prompt return (within ~one simulation latency, since workers
// must only finish the simulation they are inside), ctx.Err() as the
// reported error, and a discarded batch — no store growth, no counter
// movement.
func TestEvaluateAllContextCancelPrompt(t *testing.T) {
	const latency = 100 * time.Millisecond
	var calls atomic.Int64
	ev, err := New(slowSim(1, latency, &calls), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]space.Config, 32)
	for i := range cfgs {
		cfgs[i] = space.Config{i}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(latency / 4)
		cancel()
	}()
	start := time.Now()
	res, err := ev.EvaluateAllContext(ctx, cfgs, 4)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("cancelled batch returned results")
	}
	// Budget: the quarter-latency head start, one full in-flight
	// simulation, and generous scheduling slack — but far below the
	// ~800ms the full 32-query batch would need on 4 workers.
	if elapsed > 3*latency {
		t.Errorf("cancelled batch took %v, want ≲ one simulation latency (%v)", elapsed, latency)
	}
	st := ev.Stats()
	if st.NSim != 0 || st.NInterp != 0 {
		t.Errorf("cancelled batch moved counters: %+v", st)
	}
	if n := ev.Store().Len(); n != 0 {
		t.Errorf("cancelled batch grew the store to %d entries", n)
	}
	// The evaluator must remain fully usable: a fresh batch succeeds and
	// accounts exactly its own work.
	if _, err := ev.EvaluateAll(cfgs[:4], 2); err != nil {
		t.Fatalf("follow-up batch: %v", err)
	}
	if st := ev.Stats(); st.NSim != 4 {
		t.Errorf("follow-up batch NSim = %d, want 4", st.NSim)
	}
}

// TestEvaluateAllContextCancelCtxSimulator checks that a ContextSimulator
// is interrupted inside the simulation, making cancellation far faster
// than one simulation latency.
func TestEvaluateAllContextCancelCtxSimulator(t *testing.T) {
	const latency = time.Second
	var calls atomic.Int64
	ev, err := New(slowCtxSim(1, latency, &calls), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []space.Config{{1}, {2}, {3}, {4}}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = ev.EvaluateAllContext(ctx, cfgs, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > latency/2 {
		t.Errorf("ctx-aware cancellation took %v, want well under the %v latency", elapsed, latency)
	}
	if n := ev.Store().Len(); n != 0 {
		t.Errorf("store grew to %d entries", n)
	}
}

// TestCoalescingSingleSimulation issues N concurrent identical queries
// and demands the single-flight contract: exactly one simulator run, one
// NSim increment, one store entry, and the same value everywhere.
func TestCoalescingSingleSimulation(t *testing.T) {
	const n = 16
	var calls atomic.Int64
	ev, err := New(slowSim(2, 50*time.Millisecond, &calls), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := space.Config{7, 3}
	var (
		wg      sync.WaitGroup
		results [n]Result
		errs    [n]error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = ev.EvaluateContext(context.Background(), cfg)
		}(i)
	}
	wg.Wait()
	coalesced := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if results[i].Lambda != results[0].Lambda {
			t.Errorf("query %d lambda %v != %v", i, results[i].Lambda, results[0].Lambda)
		}
		if results[i].Source != Simulated {
			t.Errorf("query %d source = %v", i, results[i].Source)
		}
		if results[i].Coalesced {
			coalesced++
		}
	}
	if c := calls.Load(); c != 1 {
		t.Errorf("simulator ran %d times, want 1", c)
	}
	// Every query but the flight owner was served as a follower (a late
	// arrival could in principle exact-hit the store instead, but all n
	// goroutines are in flight well inside the 50ms simulation).
	if coalesced == 0 {
		t.Error("no query reported Coalesced")
	}
	st := ev.Stats()
	if st.NSim != 1 {
		t.Errorf("NSim = %d, want 1", st.NSim)
	}
	if st.NCoalesced != coalesced {
		t.Errorf("NCoalesced = %d, want %d (the followers observed)", st.NCoalesced, coalesced)
	}
	if ev.InFlight() != 0 {
		t.Errorf("InFlight = %d after all queries returned, want 0", ev.InFlight())
	}
	if ev.Store().Len() != 1 {
		t.Errorf("store has %d entries, want 1", ev.Store().Len())
	}
	if ev.Store().Versions() != 1 {
		t.Errorf("store holds %d versions, want exactly 1 insert", ev.Store().Versions())
	}
}

// TestCoalescingDisabled checks the DisableCoalescing reference mode:
// every concurrent identical miss pays its own simulation.
func TestCoalescingDisabled(t *testing.T) {
	const n = 8
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	ev, err := New(SimulatorFunc{
		NumVars: 1,
		Fn: func(cfg space.Config) (float64, error) {
			if calls.Add(1) == n {
				once.Do(func() { close(started) })
			}
			<-release // hold every simulation open until all have started
			return 1, nil
		},
	}, Options{DisableCoalescing: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ev.Evaluate(space.Config{5}); err != nil {
				t.Error(err)
			}
		}()
	}
	<-started // n simulations are genuinely in flight at once
	close(release)
	wg.Wait()
	if c := calls.Load(); c != n {
		t.Errorf("simulator ran %d times, want %d (no coalescing)", c, n)
	}
	if st := ev.Stats(); st.NSim != n {
		t.Errorf("NSim = %d, want %d", st.NSim, n)
	}
	if ev.Store().Len() != 1 {
		t.Errorf("store has %d entries, want 1", ev.Store().Len())
	}
}

// TestEngineSubmitCoalesces drives the engine directly: concurrent
// requests for identical configurations share one simulation, requests
// for distinct configurations respect the admission bound, and so do
// the members of a batch run on more workers than the bound.
func TestEngineSubmitCoalesces(t *testing.T) {
	var calls atomic.Int64
	var peak, cur atomic.Int64
	ev, err := New(SimulatorFunc{
		NumVars: 1,
		Fn: func(cfg space.Config) (float64, error) {
			calls.Add(1)
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(10 * time.Millisecond)
			cur.Add(-1)
			return -float64(cfg[0]), nil
		},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := ev.Engine(2)
	ctx := context.Background()
	// evaluateAll issues one concurrent Engine.Evaluate per config.
	evaluateAll := func(cfgs []space.Config) ([]Result, []error) {
		res := make([]Result, len(cfgs))
		errs := make([]error, len(cfgs))
		var wg sync.WaitGroup
		for i, c := range cfgs {
			wg.Add(1)
			go func(i int, c space.Config) {
				defer wg.Done()
				res[i], errs[i] = g.Evaluate(ctx, c)
			}(i, c)
		}
		wg.Wait()
		return res, errs
	}

	// 8 identical requests: one simulation.
	same := make([]space.Config, 8)
	for i := range same {
		same[i] = space.Config{42}
	}
	res, errs := evaluateAll(same)
	for i := range same {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if res[i].Lambda != -42 {
			t.Errorf("request %d lambda = %v", i, res[i].Lambda)
		}
	}
	if c := calls.Load(); c != 1 {
		t.Errorf("identical requests ran %d simulations, want 1", c)
	}

	// 12 distinct requests: all simulate, never more than 2 at once.
	calls.Store(0)
	var distinct []space.Config
	for i := 0; i < 12; i++ {
		distinct = append(distinct, space.Config{i})
	}
	_, errs = evaluateAll(distinct)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if c := calls.Load(); c != 12 {
		t.Errorf("distinct requests ran %d simulations, want 12", c)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("peak concurrent simulations %d exceeds admission bound 2", p)
	}

	// A 12-member batch on 6 workers: every member simulates, and the
	// engine's bound still holds.
	calls.Store(0)
	peak.Store(0)
	var batch []space.Config
	for i := 100; i < 112; i++ {
		batch = append(batch, space.Config{i})
	}
	if _, err := g.EvaluateAll(ctx, batch, 6); err != nil {
		t.Fatal(err)
	}
	if c := calls.Load(); c != 12 {
		t.Errorf("batch ran %d simulations, want 12", c)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("batch peak concurrent simulations %d exceeds admission bound 2", p)
	}
}

// TestCoalescedFollowerSurvivesOwnerCancellation: a follower with a live
// context must not inherit the owner's cancellation — it retries and
// completes the simulation itself.
func TestCoalescedFollowerSurvivesOwnerCancellation(t *testing.T) {
	var calls atomic.Int64
	inSim := make(chan struct{}, 4)
	ev, err := New(ContextSimulatorFunc{
		NumVars: 1,
		Fn: func(ctx context.Context, cfg space.Config) (float64, error) {
			calls.Add(1)
			inSim <- struct{}{}
			select {
			case <-time.After(30 * time.Millisecond):
				return 99, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerDone := make(chan error, 1)
	go func() {
		_, err := ev.EvaluateContext(ownerCtx, space.Config{1})
		ownerDone <- err
	}()
	<-inSim // the owner's simulation is in flight
	followerDone := make(chan error, 1)
	go func() {
		res, err := ev.EvaluateContext(context.Background(), space.Config{1})
		if err == nil && res.Lambda != 99 {
			err = fmt.Errorf("follower lambda = %v", res.Lambda)
		}
		followerDone <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the follower join the flight
	cancelOwner()
	if err := <-ownerDone; !errors.Is(err, context.Canceled) {
		t.Errorf("owner err = %v, want context.Canceled", err)
	}
	if err := <-followerDone; err != nil {
		t.Errorf("follower: %v", err)
	}
	if c := calls.Load(); c != 2 {
		t.Errorf("simulator ran %d times, want 2 (cancelled owner + retrying follower)", c)
	}
	if ev.Store().Len() != 1 {
		t.Errorf("store has %d entries, want 1", ev.Store().Len())
	}
}

// TestSequentialBitIdentical pins the workers == 1 contract: with
// coalescing enabled (the default), the single-worker batch path
// produces bit-identical results, stats and store state to the
// DisableCoalescing reference evaluator, which still takes the
// pre-engine sequential code path.
func TestSequentialBitIdentical(t *testing.T) {
	mk := func(disable bool) *Evaluator {
		ev, err := New(SimulatorFunc{
			NumVars: 2,
			Fn: func(cfg space.Config) (float64, error) {
				return -1 / float64(cfg[0]*cfg[0]+cfg[1]+1), nil
			},
		}, Options{D: 3, NnMin: 1, MaxSupport: 4, DisableCoalescing: disable})
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	var batches [][]space.Config
	for r := 0; r < 6; r++ {
		var b []space.Config
		for i := 0; i < 9; i++ {
			b = append(b, space.Config{2 + (r+i)%5, 2 + (r*i)%4})
		}
		batches = append(batches, b)
	}
	run := func(ev *Evaluator) ([][]Result, Stats) {
		var out [][]Result
		for _, b := range batches {
			res, err := ev.EvaluateAll(b, 1)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out, ev.Stats()
	}
	evA, evB := mk(false), mk(true)
	resA, stA := run(evA)
	resB, stB := run(evB)
	for i := range resA {
		for j := range resA[i] {
			if resA[i][j] != resB[i][j] {
				t.Fatalf("batch %d result %d: coalescing-on %+v != reference %+v",
					i, j, resA[i][j], resB[i][j])
			}
		}
	}
	if stA.NSim != stB.NSim || stA.NInterp != stB.NInterp || stA.SumNeigh != stB.SumNeigh {
		t.Errorf("stats diverge: %+v vs %+v", stA, stB)
	}
	ea, eb := evA.Store().Entries(), evB.Store().Entries()
	if len(ea) != len(eb) {
		t.Fatalf("store sizes diverge: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if !ea[i].Config.Equal(eb[i].Config) || ea[i].Lambda != eb[i].Lambda {
			t.Errorf("store entry %d diverges: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

// TestEvaluateContextPreCancelled checks the cheapest path: a dead
// context never reaches the simulator.
func TestEvaluateContextPreCancelled(t *testing.T) {
	var calls atomic.Int64
	ev, err := New(slowSim(1, time.Millisecond, &calls), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ev.EvaluateContext(ctx, space.Config{1}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Error("simulator ran on a dead context")
	}
}

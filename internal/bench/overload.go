package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/evaluator"
	"repro/internal/space"
)

// OverloadOptions configures OverloadSweep.
type OverloadOptions struct {
	// Clients is the number of concurrent closed-loop clients; zero
	// selects 32. Each client fires one request, waits for its outcome,
	// and immediately fires the next, so offered load scales with how
	// fast the service answers — shedding included.
	Clients int
	// MaxSims bounds the simulations in flight — the engine admission
	// semaphore; zero selects 4. Saturation needs Clients >> MaxSims.
	MaxSims int
	// SimLatency is the cost of one simulation; zero selects 20ms. The
	// scenario's simulator is non-abortable: once a simulation holds an
	// admission slot it runs to completion even if the request deadline
	// expires underneath it — the licensed-seat model where admission
	// mistakes burn real capacity.
	SimLatency time.Duration
	// Deadline is the per-request deadline; zero selects 7/4 of
	// SimLatency — tight enough that queueing behind a handful of
	// simulations dooms a request, the regime shedding is for.
	Deadline time.Duration
	// Duration is the measured window; zero selects 1s.
	Duration time.Duration
	// Nv is the configuration dimensionality; zero selects 3.
	Nv int
	// Seed perturbs the simulator.
	Seed uint64
	// DisableShedding runs the ablation arm: doomed requests park on
	// the admission queue and expire there (or worse, win a slot too
	// late and burn it on a simulation nobody can use).
	DisableShedding bool
}

func (o *OverloadOptions) defaults() {
	if o.Clients == 0 {
		o.Clients = 32
	}
	if o.MaxSims == 0 {
		o.MaxSims = 4
	}
	if o.SimLatency == 0 {
		o.SimLatency = 20 * time.Millisecond
	}
	if o.Deadline == 0 {
		o.Deadline = o.SimLatency * 7 / 4
	}
	if o.Duration == 0 {
		o.Duration = time.Second
	}
	if o.Nv == 0 {
		o.Nv = 3
	}
}

// OverloadResult is one arm of the overload scenario.
type OverloadResult struct {
	Shedding bool          // admission shedding active (the non-ablation arm)
	Elapsed  time.Duration // actual measured window
	Offered  int           // requests the clients fired
	Goodput  int           // answers delivered within their deadline
	Shed     int           // typed ErrOverloaded refusals
	Expired  int           // context.DeadlineExceeded outcomes
	Late     int           // successes delivered after the deadline
	Other    int           // anything else (should be zero)
	P50, P99 time.Duration // response latency percentiles, all outcomes
	Stats    evaluator.Stats
}

// GoodputRate is answers-within-deadline per second.
func (r OverloadResult) GoodputRate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Goodput) / r.Elapsed.Seconds()
}

// overloadSim is the scenario's simulator: deterministic λ behind a
// NON-abortable sleep. Cancellation is only honoured after the sleep —
// the model of a simulator seat that cannot be reclaimed mid-run — so a
// request admitted with less than SimLatency of deadline left burns a
// full slot-cycle producing nothing. That waste is exactly what
// deadline-aware shedding exists to prevent, and an abortable simulator
// would hide most of it.
func overloadSim(nv int, latency time.Duration, seed uint64) evaluator.ContextSimulatorFunc {
	inner := &SleepSimulator{NumVars: nv, Seed: seed}
	return evaluator.ContextSimulatorFunc{
		NumVars: nv,
		Fn: func(ctx context.Context, cfg space.Config) (float64, error) {
			time.Sleep(latency)
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			return inner.EvaluateContext(context.Background(), cfg)
		},
	}
}

// overloadConfig maps a request ordinal to a distinct configuration, so
// every request is a store miss that needs its own simulation — no
// coalescing, no exact hits, offered load translates 1:1 into demanded
// simulations. Word lengths walk [2, 16], giving 15^nv distinct
// configurations before the sequence wraps.
func overloadConfig(n uint64, nv int) space.Config {
	cfg := make(space.Config, nv)
	for j := range cfg {
		cfg[j] = 2 + int(n%15)
		n /= 15
	}
	return cfg
}

// OverloadSweep saturates a deadline-bound evaluation service and
// measures what survives: Clients closed-loop clients fire distinct
// configurations at an engine holding MaxSims admission slots, every
// request carrying a Deadline barely above one simulation. With
// shedding on (the default), a request whose remaining deadline cannot
// cover the estimated queue wait is refused immediately with
// ErrOverloaded; the ablation arm (DisableShedding) parks those doomed
// requests on the admission queue, where they either expire or — worse —
// win a slot with too little time left and burn it on a simulation
// whose answer arrives past the deadline.
//
// The scenario warms the engine's latency estimate with MaxSims
// sequential simulations first (a cold engine never sheds — it has no
// estimate to shed against), then measures for Duration.
func OverloadSweep(ctx context.Context, opts OverloadOptions) (OverloadResult, error) {
	opts.defaults()
	res := OverloadResult{Shedding: !opts.DisableShedding}

	sim := overloadSim(opts.Nv, opts.SimLatency, opts.Seed)
	ev, err := evaluator.New(sim, evaluator.Options{DisableShedding: opts.DisableShedding})
	if err != nil {
		return res, err
	}
	engine := ev.Engine(opts.MaxSims)

	// Warmup: prime the EWMA latency estimate and fill the store's
	// first configurations, outside the measured window.
	var next uint64
	for i := 0; i < opts.MaxSims; i++ {
		n := next
		next++
		if _, err := engine.Evaluate(ctx, overloadConfig(n, opts.Nv)); err != nil {
			return res, fmt.Errorf("bench: overload warmup: %w", err)
		}
	}
	ev.ResetStats()

	type clientTally struct {
		offered, goodput, shed, expired, late, other int
		latencies                                    []time.Duration
	}
	tallies := make([]clientTally, opts.Clients)
	var wg sync.WaitGroup
	counter := atomic.Uint64{}
	counter.Store(next)
	start := time.Now()
	stop := start.Add(opts.Duration)
	for i := 0; i < opts.Clients; i++ {
		wg.Add(1)
		go func(t *clientTally) {
			defer wg.Done()
			for time.Now().Before(stop) && ctx.Err() == nil {
				cfg := overloadConfig(counter.Add(1), opts.Nv)
				rctx, cancel := context.WithTimeout(ctx, opts.Deadline)
				begin := time.Now()
				_, err := engine.Evaluate(rctx, cfg)
				elapsed := time.Since(begin)
				cancel()
				t.offered++
				t.latencies = append(t.latencies, elapsed)
				switch {
				case err == nil && elapsed <= opts.Deadline:
					t.goodput++
				case err == nil:
					t.late++
				case errors.Is(err, evaluator.ErrOverloaded):
					t.shed++
					// Honour the Retry-After hint like a well-behaved
					// client (capped at one deadline) — a shed refusal is
					// an instruction to come back later, not to spin.
					var ra interface{ RetryAfterHint() time.Duration }
					if errors.As(err, &ra) {
						time.Sleep(min(ra.RetryAfterHint(), opts.Deadline))
					}
				case errors.Is(err, context.DeadlineExceeded):
					t.expired++
				default:
					t.other++
				}
			}
		}(&tallies[i])
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	if err := ctx.Err(); err != nil {
		return res, err
	}

	var all []time.Duration
	for i := range tallies {
		t := &tallies[i]
		res.Offered += t.offered
		res.Goodput += t.goodput
		res.Shed += t.shed
		res.Expired += t.expired
		res.Late += t.late
		res.Other += t.other
		all = append(all, t.latencies...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) > 0 {
		res.P50 = all[len(all)/2]
		res.P99 = all[len(all)*99/100]
	}
	res.Stats = ev.Stats()
	return res, nil
}

// RenderOverload renders overload arms as a text table.
func RenderOverload(rows []OverloadResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %8s %6s %8s %6s %10s %10s %10s\n",
		"arm", "offered", "goodput", "shed", "expired", "late", "good/s", "p50", "p99")
	b.WriteString(strings.Repeat("-", 84) + "\n")
	for _, r := range rows {
		arm := "shed"
		if !r.Shedding {
			arm = "no-shed"
		}
		fmt.Fprintf(&b, "%-10s %8d %8d %6d %8d %6d %10.1f %10v %10v\n",
			arm, r.Offered, r.Goodput, r.Shed, r.Expired, r.Late,
			r.GoodputRate(), r.P50.Round(time.Millisecond), r.P99.Round(time.Millisecond))
	}
	return b.String()
}

package evaluator

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/space"
	"repro/internal/store"
)

// flight is one in-flight live simulation in the single-flight table.
// The owner (the goroutine that registered it) runs the simulator,
// stores the value, fills lam/err, and closes done; followers block on
// done and share the outcome without running the simulator, consuming an
// admission slot, or touching the activity counters.
//
// The steady-state miss path registers and retires a flight without a
// single follower, so the contended pieces are lazy: the done channel is
// created by the first follower (under the table lock), and cfg
// REFERENCES the caller's slice rather than cloning it — safe because a
// flight only lives while its owner is inside simulateLive, during which
// the owner's caller must keep cfg unchanged anyway.
type flight struct {
	cfg  space.Config
	done chan struct{} // created by the first follower, under the table lock
	next *flight       // hash-bucket chain (collisions share a bucket, never a result)
	lam  float64
	err  error
}

// inflight is the single-flight table: at most one live simulation per
// configuration. It is keyed by the store's config hash (the same
// hashing that keys exact lookups), with chained equality checks so hash
// collisions merely share a bucket, never a result. Batch members never
// enter it: EvaluateAll's pre-pass answers a repeat inside one batch
// once, and a batch commits its simulations only after the whole batch
// has succeeded, so a batch flight could not resolve with a stored value
// (and resolving it at commit time would let two batches that share
// configurations wait on each other forever).
type inflight struct {
	enabled bool
	mu      sync.Mutex
	m       map[uint64]*flight
	// n counts the live flights (the map holds bucket chains, so its own
	// length undercounts under collisions); it backs the service-facing
	// in-flight gauge.
	n int
	// pool recycles flights that resolved without ever gaining a
	// follower — the steady-state miss pattern — so the uncontended path
	// allocates no flight either. A flight that had followers is left to
	// the GC: they still read its outcome after resolve.
	pool sync.Pool
}

// size returns the number of simulations currently in flight.
func (t *inflight) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

func newInflight(enabled bool) inflight {
	return inflight{enabled: enabled, m: make(map[uint64]*flight)}
}

// acquire either joins the existing flight for cfg (owner=false) or
// registers a new one (owner=true). The returned flight is never nil;
// a follower's flight always has a non-nil done channel.
func (t *inflight) acquire(hash uint64, cfg space.Config) (f *flight, owner bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for g := t.m[hash]; g != nil; g = g.next {
		if g.cfg.Equal(cfg) {
			if g.done == nil {
				g.done = make(chan struct{})
			}
			return g, false
		}
	}
	if recycled, ok := t.pool.Get().(*flight); ok {
		f = recycled
		f.lam, f.err = 0, nil
	} else {
		f = &flight{}
	}
	f.cfg = cfg
	f.next = t.m[hash]
	t.m[hash] = f
	t.n++
	return f, true
}

// resolve publishes the outcome and retires the flight: it is removed
// from the table first, so a request arriving after the wake-up either
// finds the store already populated (the owner inserts before resolving)
// or starts a fresh flight. The done channel (if any follower created
// one) is read under the lock and closed after it, so follower wake-ups
// are ordered after the outcome writes.
func (t *inflight) resolve(hash uint64, f *flight, lam float64, err error) {
	f.lam, f.err = lam, err
	t.mu.Lock()
	prev := (*flight)(nil)
	for g := t.m[hash]; g != nil; prev, g = g, g.next {
		if g != f {
			continue
		}
		if prev == nil {
			if g.next == nil {
				delete(t.m, hash)
			} else {
				t.m[hash] = g.next
			}
		} else {
			prev.next = g.next
		}
		t.n--
		break
	}
	done := f.done
	if done == nil {
		// No follower ever saw this flight: once unlinked it is
		// unreachable (followers only obtain flights from the chain,
		// under this lock), so it can be recycled.
		f.cfg, f.next = nil, nil
		t.pool.Put(f)
	}
	t.mu.Unlock()
	if done != nil {
		close(done)
	}
}

// Engine is the admission-controlled request path of an Evaluator. Every
// simulation the evaluator runs claims one of the engine's slots first —
// live queries through Evaluate/EvaluateWith and batch members through
// EvaluateAll alike — so at most maxSims simulations run at once however
// many callers share the engine. Live misses also coalesce through the
// evaluator's single-flight table: identical concurrent misses cost one
// simulation, and followers of a coalesced flight never hold a slot.
//
// New gives every evaluator an unbounded engine, which its Evaluate,
// EvaluateAll and Oracle delegate to; Evaluator.Engine builds bounded
// ones. An Engine is safe for concurrent use; create one per evaluator
// and share it between tenants.
type Engine struct {
	ev  *Evaluator
	sem chan struct{} // nil when unbounded
	// shed enables deadline-aware load shedding on the admission path
	// (on by default for bounded engines; Options.DisableShedding turns
	// it off for ablation).
	shed bool
	// waiting gauges the requests currently parked on the admission
	// semaphore — the live queue depth the shedder prices waits with.
	waiting atomic.Int64
}

// Engine builds an engine over the evaluator. maxSims bounds the
// simulations in flight across all its callers, live and batch; zero or
// negative means unbounded (the callers' own parallelism is the only
// limit).
func (e *Evaluator) Engine(maxSims int) *Engine {
	var sem chan struct{}
	if maxSims > 0 {
		sem = make(chan struct{}, maxSims)
	}
	return &Engine{ev: e, sem: sem, shed: maxSims > 0 && !e.opts.DisableShedding}
}

// Evaluate answers one query against the live store: exact hit,
// interpolation, or a coalesced, admission-bounded simulation that is
// stored before any caller observes it. It never serves degraded answers
// (RequestOptions zero value), so optimisers driving the engine through
// it — and through Oracle — only ever see store-backed truth.
func (g *Engine) Evaluate(ctx context.Context, cfg space.Config) (Result, error) {
	return g.EvaluateWith(ctx, cfg, RequestOptions{})
}

// EvaluateWith is Evaluate under an explicit per-request policy; the
// service front end uses it to grant brownout opt-in
// (RequestOptions.AllowDegraded) to tenants that asked for it. When the
// simulation tier refuses the request on capacity grounds and ro opts
// in, a degraded surrogate-only answer replaces the error.
func (g *Engine) EvaluateWith(ctx context.Context, cfg space.Config, ro RequestOptions) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	e := g.ev
	qs := e.scratch.Get().(*queryScratch)
	res, ok := e.answerFromStore(cfg, qs)
	e.scratch.Put(qs)
	if ok {
		return res, nil
	}
	lam, coalesced, err := g.simulateLive(ctx, cfg)
	if err != nil {
		// Degraded serving may paper over a capacity refusal, never a
		// simulator or store failure: a wrong answer must not hide a bug.
		if _, refused := RetryAfter(err); refused && ro.AllowDegraded {
			if res, ok := e.degradedAnswer(cfg); ok {
				return res, nil
			}
		}
		return Result{}, err
	}
	return Result{Lambda: lam, Source: Simulated, Coalesced: coalesced}, nil
}

// simulateLive is the simulation step of a live query. Concurrent
// identical misses coalesce onto one flight: the owner simulates (see
// simulateOwned) and resolves the flight with a value that is already in
// the store; followers block on the flight and share the value.
//
// A follower woken by an owner that was cancelled does not inherit the
// cancellation: if its own context is still live it retries, typically
// becoming the new owner. A follower whose own context dies while
// waiting returns ctx.Err() immediately and leaves the flight running
// for the remaining waiters.
// The second return value reports whether this caller was a coalesced
// follower — served by another request's simulation instead of its own.
func (g *Engine) simulateLive(ctx context.Context, cfg space.Config) (float64, bool, error) {
	e := g.ev
	if !e.flights.enabled {
		lam, err := g.simulateOwned(ctx, cfg)
		return lam, false, err
	}
	hash := store.HashConfig(cfg)
	for {
		f, owner := e.flights.acquire(hash, cfg)
		if owner {
			lam, err := g.simulateOwned(ctx, cfg)
			e.flights.resolve(hash, f, lam, err)
			return lam, false, err
		}
		select {
		case <-f.done:
			if f.err != nil {
				if isContextError(f.err) && ctx.Err() == nil {
					continue // the owner was cancelled, we were not: retry
				}
				return 0, false, f.err
			}
			e.stats.nCoalesced.Add(1)
			return f.lam, true, nil
		case <-ctx.Done():
			return 0, false, ctx.Err()
		}
	}
}

// simulateOwned runs a live miss's simulation inside the admission bound
// (with deadline-aware shedding unless disabled), charges it to the
// evaluator's stats and stores the result before returning.
func (g *Engine) simulateOwned(ctx context.Context, cfg space.Config) (float64, error) {
	if err := g.admit(ctx); err != nil {
		return 0, err
	}
	defer g.release()
	e := g.ev
	// Between the caller's store miss and this flight's registration (or
	// while this request queued for a simulation slot) the configuration
	// may have been simulated and stored by another request; re-checking
	// here keeps the live path at one simulation per configuration.
	// (Skipped in DisableCoalescing mode, the no-dedup reference
	// behaviour.)
	if e.flights.enabled {
		if lam, ok := e.store.Lookup(cfg); ok {
			return lam, nil
		}
	}
	lam, err := e.rawSimulate(ctx, cfg, &e.stats)
	if err != nil {
		return 0, err
	}
	e.store.Add(cfg, lam)
	// On a durable store an unpersisted result must not be acknowledged:
	// the sticky durability error fails the query (and the flight).
	return lam, e.store.Err()
}

// admit claims one admission slot for a flight owner, blocking until a
// slot frees or ctx dies. Three resilience rules shape it beyond a bare
// semaphore send:
//
//  1. A context that is already dead never claims a slot, even if one
//     is free — the race where an expired waiter still won admission
//     (and its slot sat idle until the dead-context check inside the
//     simulator path released it) is closed by re-checking ctx after
//     every successful send.
//  2. When no slot is free and the request carries a deadline, the
//     deadline-aware shedder rejects it up front with a typed
//     *OverloadError if the remaining time cannot cover the estimated
//     queue wait plus its own simulation. Doomed requests fail in
//     microseconds (and tell the client when to retry) instead of
//     holding a queue position they can never use.
//  3. A request that does park re-sheds itself once its remaining
//     deadline can no longer cover even a bare simulation: the wait
//     estimate is only an estimate, and when it proves too optimistic
//     the waiter leaves the queue while the refusal is still cheap —
//     a late admission would burn a slot on an answer nobody can use.
//     With shedding on, a parked request therefore never expires in
//     the queue; NQueueExpired (the queue-collapse signal) stays zero
//     by construction, not by luck.
//  4. A request that parks and dies waiting anyway (no deadline, or
//     shedding disabled) is counted in NQueueExpired.
//
// An unbounded engine (nil semaphore) admits at once. Refusals are
// charged to the evaluator's stats as they happen, even when the refused
// member's batch is then discarded.
func (g *Engine) admit(ctx context.Context) error {
	if g.sem == nil {
		return nil
	}
	stats := &g.ev.stats
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case g.sem <- struct{}{}:
		if err := ctx.Err(); err != nil {
			<-g.sem
			return err
		}
		return nil
	default:
	}
	// Count ourselves into the queue BEFORE pricing the wait: a burst of
	// concurrent arrivals each sees a position that includes the others,
	// so they cannot all park believing the queue is one deep. A shed
	// request leaves the gauge again microseconds later via the defer.
	pos := g.waiting.Add(1)
	defer g.waiting.Add(-1)
	var doom <-chan time.Time
	if g.shed {
		if deadline, ok := ctx.Deadline(); ok {
			if est := g.waitEstimate(pos); est > 0 && time.Until(deadline) < est {
				stats.nShed.Add(1)
				return &OverloadError{EstimatedWait: est}
			}
			if ewma := time.Duration(g.ev.simEWMA.Load()); ewma > 0 {
				// Rule 3: give up the queue position the moment the
				// deadline can no longer cover one simulation. The lead
				// is positive here — the up-front check just verified
				// remaining >= est >= ewma.
				if lead := time.Until(deadline) - ewma; lead > 0 {
					tm := time.NewTimer(lead)
					defer tm.Stop()
					doom = tm.C
				}
			}
		}
	}
	select {
	case g.sem <- struct{}{}:
		if err := ctx.Err(); err != nil {
			<-g.sem
			stats.nQueueExp.Add(1)
			return err
		}
		return nil
	case <-doom:
		stats.nShed.Add(1)
		return &OverloadError{EstimatedWait: g.estimatedWait()}
	case <-ctx.Done():
		stats.nQueueExp.Add(1)
		return ctx.Err()
	}
}

// release returns an admission slot claimed by admit.
func (g *Engine) release() {
	if g.sem != nil {
		<-g.sem
	}
}

// waitEstimate prices what a request at queue position pos (1-based,
// counting itself) would wait before its simulation completes: the
// parked queue drains one slot every ewma/maxSims on average, plus the
// request's own simulation. Zero until the first simulation has seeded
// the latency estimate (a cold engine never sheds — it has no evidence
// the queue is slow).
func (g *Engine) waitEstimate(pos int64) time.Duration {
	ewma := g.ev.simEWMA.Load()
	if ewma == 0 || cap(g.sem) == 0 {
		return 0
	}
	return time.Duration(pos*ewma/int64(cap(g.sem)) + ewma)
}

// estimatedWait is waitEstimate for a hypothetical next arrival.
func (g *Engine) estimatedWait() time.Duration {
	return g.waitEstimate(g.waiting.Load() + 1)
}

// EstimatedWait exposes the shedder's current queue-wait estimate — the
// service layer's Retry-After source for capacity refusals. Zero means
// no estimate yet (no simulation has completed) or an unbounded engine.
func (g *Engine) EstimatedWait() time.Duration { return g.estimatedWait() }

// QueuedSims returns the number of requests currently parked waiting
// for an admission slot (always zero on an unbounded engine) — a
// point-in-time gauge for service monitoring.
func (g *Engine) QueuedSims() int { return int(g.waiting.Load()) }

// MaxSims returns the admission bound the engine was built with; zero
// means unbounded.
func (g *Engine) MaxSims() int { return cap(g.sem) }

// ActiveSims returns the number of admission slots currently held by
// running simulations (always zero on an unbounded engine). It is a
// point-in-time gauge for service monitoring, not a synchronised count.
func (g *Engine) ActiveSims() int { return len(g.sem) }

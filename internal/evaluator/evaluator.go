package evaluator

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kriging"
	"repro/internal/space"
	"repro/internal/store"
)

// Simulator measures the quality metric λ of one configuration by running
// the full application simulation. It corresponds to the paper's
// λ = evaluateAccuracy(I, w). Implementations must be safe for concurrent
// use when the evaluator is shared between goroutines or driven through
// EvaluateAll; all the benchmark simulators in this repository are,
// because their datapaths derive per-call format sets rather than
// mutating shared node state.
//
// A Simulator that additionally implements ContextSimulator can be
// cancelled mid-simulation; plain Simulators are cancelled between
// simulations (the evaluator never starts a new simulation on a dead
// context).
type Simulator interface {
	// Evaluate returns λ(cfg).
	Evaluate(cfg space.Config) (float64, error)
	// Nv returns the number of optimisation variables.
	Nv() int
}

// ContextSimulator is a Simulator whose simulations honour cancellation:
// EvaluateContext should return promptly — typically with ctx.Err() —
// once ctx is done. The evaluator's context-aware entry points prefer it
// over Evaluate when it is implemented.
type ContextSimulator interface {
	Simulator
	// EvaluateContext returns λ(cfg), aborting early when ctx is done.
	EvaluateContext(ctx context.Context, cfg space.Config) (float64, error)
}

// SimulatorFunc adapts a function to the Simulator interface.
type SimulatorFunc struct {
	NumVars int
	Fn      func(cfg space.Config) (float64, error)
}

// Evaluate implements Simulator.
func (s SimulatorFunc) Evaluate(cfg space.Config) (float64, error) { return s.Fn(cfg) }

// Nv implements Simulator.
func (s SimulatorFunc) Nv() int { return s.NumVars }

// ContextSimulatorFunc adapts a context-aware function to the
// ContextSimulator interface.
type ContextSimulatorFunc struct {
	NumVars int
	Fn      func(ctx context.Context, cfg space.Config) (float64, error)
}

// Evaluate implements Simulator with a background context.
func (s ContextSimulatorFunc) Evaluate(cfg space.Config) (float64, error) {
	return s.Fn(context.Background(), cfg)
}

// EvaluateContext implements ContextSimulator.
func (s ContextSimulatorFunc) EvaluateContext(ctx context.Context, cfg space.Config) (float64, error) {
	return s.Fn(ctx, cfg)
}

// Nv implements Simulator.
func (s ContextSimulatorFunc) Nv() int { return s.NumVars }

// simulate runs one simulation under ctx: a dead context aborts before
// the simulator starts, and a ContextSimulator is additionally cancelled
// mid-run.
func simulate(ctx context.Context, sim Simulator, cfg space.Config) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if cs, ok := sim.(ContextSimulator); ok {
		return cs.EvaluateContext(ctx, cfg)
	}
	return sim.Evaluate(cfg)
}

// Options configures the kriging-based evaluator.
type Options struct {
	// D is the neighbourhood radius: simulated configurations within L1
	// distance <= D form the kriging support. The paper sweeps D over
	// {2, 3, 4, 5}.
	D float64
	// NnMin is the minimum-neighbour threshold: kriging is used only
	// when the support size Nn satisfies Nn > NnMin (strict, as in
	// line 17 of the algorithms). The paper's default run uses 1 and
	// reports a side experiment with 2.
	NnMin int
	// MaxSupport caps the kriging support at the nearest points so the
	// Γ system stays small and well conditioned; zero means unlimited.
	// The cap applies to the interpolation only, not to the Nn > NnMin
	// decision.
	MaxSupport int
	// MaxVariance, when positive and the interpolator implements
	// VariancePredictor, gates each interpolation on the kriging
	// variance of Eq. 5 (measured in the transformed domain): a
	// prediction whose variance exceeds the threshold falls back to
	// simulation. This trades some of the saved simulations for
	// confidence in the kriged values.
	MaxVariance float64
	// DMax, when greater than D, turns on the adaptive neighbourhood:
	// a query with too few supports at radius D retries with the radius
	// grown in unit steps up to DMax before falling back to simulation.
	// The paper fixes d per run; adaptive growth recovers part of the
	// interpolated share at tight base distances without paying the
	// error of a uniformly large d.
	DMax float64
	// Interp is the interpolator; nil selects ordinary kriging with the
	// Numerical Recipes power variogram over L1 distances, the paper's
	// setup. A custom Interp must be safe for concurrent use if the
	// evaluator is (kriging.Ordinary and kriging.Simple are).
	Interp kriging.Interpolator
	// Metric is the neighbour-search distance; the zero value is L1.
	Metric space.Metric
	// StoreShards overrides the shard count of the support store; zero
	// selects store.DefaultShardCount.
	StoreShards int
	// StoreIndex selects the support store's spatial-index mode. The
	// zero value (store.IndexAuto) buckets configurations on a lattice
	// grid sized from the query radius (D, or DMax when adaptive growth
	// is on), so radius queries visit only candidate cells instead of
	// scanning the whole store; store.IndexLinear restores the paper's
	// plain linear scan. Results are identical either way.
	StoreIndex store.IndexMode
	// StoreCellSize overrides the lattice cell edge of the spatial
	// index; zero derives it from D/DMax.
	StoreCellSize int
	// Transform, when non-nil, maps λ into the space in which kriging
	// is performed, and Untransform maps predictions back. The paper
	// kriges λ = -P directly (identity); the log-domain ablation uses a
	// dB pair. Both must be set together.
	Transform, Untransform func(float64) float64
	// DisableShedding turns off the engine's deadline-aware load
	// shedding: requests park on the admission semaphore until their
	// context expires, however hopeless the queue — the pre-resilience
	// behaviour, kept as the ablation arm of bench.OverloadSweep and as
	// an operator escape hatch (EVALD_DISABLE_SHED).
	DisableShedding bool
	// DisableCoalescing turns off single-flight simulation coalescing:
	// by default concurrent identical cache misses (several goroutines —
	// optimiser instances, engine sessions, batch workers — asking for
	// the same not-yet-simulated configuration at the same time) share
	// ONE simulation; the first caller runs the simulator and the rest
	// block on its result. Sequential callers are unaffected either way.
	DisableCoalescing bool
	// StateDir, when non-empty, makes the support store durable: every
	// simulated result is written to a checksummed write-ahead log in
	// this directory (group-committed and fsynced per batch) before it
	// is acknowledged, and New recovers the directory's contents into
	// the store — so an interrupted campaign resumes with every paid-for
	// simulation instead of re-running it. New fails if the directory
	// holds a corrupt log. Call Close when done. Empty keeps the store
	// purely in-memory, exactly as before.
	StateDir string
}

// ErrBadOptions reports an invalid Options combination.
var ErrBadOptions = errors.New("evaluator: invalid options")

func (o *Options) validate() error {
	if o.D < 0 {
		return fmt.Errorf("%w: negative distance %v", ErrBadOptions, o.D)
	}
	if o.NnMin < 0 {
		return fmt.Errorf("%w: negative NnMin %d", ErrBadOptions, o.NnMin)
	}
	if o.MaxSupport < 0 {
		return fmt.Errorf("%w: negative MaxSupport %d", ErrBadOptions, o.MaxSupport)
	}
	if o.MaxVariance < 0 {
		return fmt.Errorf("%w: negative MaxVariance %v", ErrBadOptions, o.MaxVariance)
	}
	if o.DMax != 0 && o.DMax < o.D {
		return fmt.Errorf("%w: DMax %v below D %v", ErrBadOptions, o.DMax, o.D)
	}
	if o.StoreShards < 0 {
		return fmt.Errorf("%w: negative StoreShards %d", ErrBadOptions, o.StoreShards)
	}
	if o.StoreCellSize < 0 {
		return fmt.Errorf("%w: negative StoreCellSize %d", ErrBadOptions, o.StoreCellSize)
	}
	if (o.Transform == nil) != (o.Untransform == nil) {
		return fmt.Errorf("%w: Transform and Untransform must be set together", ErrBadOptions)
	}
	return nil
}

// Source tells how a metric value was obtained.
type Source int

// Evaluation sources.
const (
	// Simulated means the real simulator ran and the result entered the
	// support store.
	Simulated Source = iota
	// Interpolated means the value was kriged from neighbours.
	Interpolated
)

// String returns the source name.
func (s Source) String() string {
	if s == Interpolated {
		return "interpolated"
	}
	return "simulated"
}

// Result is the outcome of one evaluator query.
type Result struct {
	Lambda    float64
	Source    Source
	Neighbors int // support size used when interpolated (the paper's j)
	// Coalesced reports that this query was served by another request's
	// in-flight simulation through the single-flight table — it paid no
	// simulation of its own. Always false for exact hits, interpolations
	// and flight owners.
	Coalesced bool
	// Degraded marks a brownout answer: the simulation tier refused the
	// request (admission shed or remote pool down) and the caller
	// had opted in (RequestOptions.AllowDegraded), so this value is a
	// surrogate-only kriging prediction served with the NnMin and
	// variance gates waived. It was not inserted into the store and
	// must not feed commit decisions.
	Degraded bool
}

// Evaluator is the kriging-accelerated metric evaluator. It is safe for
// concurrent use by multiple goroutines; concurrent identical misses are
// deduplicated through a single-flight table (see Options.
// DisableCoalescing) shared by Evaluate, EvaluateAll and every Engine
// session.
type Evaluator struct {
	sim     Simulator
	opts    Options
	store   *store.Store
	stats   counters
	flights inflight
	// simEWMA is the smoothed wall time of one simulation in
	// nanoseconds (see observeSimLatency); the engine's deadline-aware
	// shedder prices queue waits with it. Zero until the first
	// simulation completes.
	simEWMA atomic.Int64
	// scratch pools per-query working buffers (neighbourhood, transformed
	// values, query coordinates): live requests borrow one per call,
	// batch workers one per worker, so steady-state queries stay off the
	// heap.
	scratch sync.Pool
}

// queryScratch is the reusable working set of one evaluator query (or,
// in a batch worker, of one support group).
type queryScratch struct {
	nb         store.Neighborhood
	ys         []float64    // transformed support values
	x          []float64    // query point as floats
	one        [1][]float64 // x as a support group of one
	out        []Result     // answers of the group being kriged
	vals, vars []float64    // predicted values and variances of the group
}

// New builds an Evaluator around a Simulator.
func New(sim Simulator, opts Options) (*Evaluator, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Interp == nil {
		opts.Interp = &kriging.Ordinary{} // L1 + power variogram defaults
	}
	// The query radius regime sizes the index cells: with cell ≈ D the
	// candidate ring around a query is one cell per axis.
	hint := opts.D
	if opts.DMax > hint {
		hint = opts.DMax
	}
	sopts := store.Options{
		Shards:     opts.StoreShards,
		Index:      opts.StoreIndex,
		CellSize:   opts.StoreCellSize,
		RadiusHint: hint,
	}
	if opts.StateDir != "" {
		sopts.Durability = &store.DurabilityOptions{Dir: opts.StateDir}
	}
	st, err := store.Open(opts.Metric, sopts)
	if err != nil {
		return nil, fmt.Errorf("evaluator: opening state: %w", err)
	}
	return &Evaluator{
		sim:     sim,
		opts:    opts,
		store:   st,
		flights: newInflight(!opts.DisableCoalescing),
		scratch: sync.Pool{New: func() any { return new(queryScratch) }},
	}, nil
}

// Close flushes and closes the durable state (Options.StateDir). The
// evaluator remains usable for reads and interpolation against the
// in-memory store, but simulated results are no longer persisted or
// acknowledged. Closing an in-memory evaluator is a no-op.
func (e *Evaluator) Close() error { return e.store.Close() }

// Store exposes the simulated-configuration store (read-mostly; the
// optimisers warm-start Algorithm 2 with the store of Algorithm 1).
func (e *Evaluator) Store() *store.Store { return e.store }

// Err reports the sticky durability failure of the state store, if any.
// A durable evaluator is fail-stop: once persisting a result fails, no
// later simulation is acknowledged (queries return the error instead),
// and Err explains why. Always nil for in-memory evaluators.
func (e *Evaluator) Err() error { return e.store.Err() }

// Preload bulk-loads previously simulated results into the support store
// through the amortized write path — the warm-start primitive behind
// Restore and behind reusing one campaign's store in the next. It
// returns the number of entries that were new configurations. Preloaded
// values count as simulator truth for later queries (exact hits and
// kriging support) but do not touch the activity counters: Stats keeps
// measuring only this evaluator's own work.
func (e *Evaluator) Preload(entries []store.Entry) int {
	return e.store.AddBatch(entries)
}

// Stats returns a snapshot of the activity counters. While evaluations
// are in flight on other goroutines the snapshot is approximate; it is
// exact once they have returned.
func (e *Evaluator) Stats() Stats { return e.stats.snapshot() }

// InFlight returns the number of simulations currently registered in the
// single-flight table — a point-in-time gauge of distinct configurations
// being simulated right now (always zero with coalescing disabled).
func (e *Evaluator) InFlight() int { return e.flights.size() }

// ResetStats zeroes the activity counters without clearing the store.
func (e *Evaluator) ResetStats() { e.stats.reset() }

// Nv returns the dimensionality of the underlying simulator.
func (e *Evaluator) Nv() int { return e.sim.Nv() }

// storeView is the read surface shared by the live store and its
// snapshots; Evaluate decides against the live store, EvaluateAll against
// a batch-entry snapshot. The buffer-reusing query forms keep the
// steady-state decision path off the heap.
type storeView interface {
	Lookup(c space.Config) (float64, bool)
	NeighborsInto(buf *store.Neighborhood, w space.Config, d float64) *store.Neighborhood
	NearestKInto(buf *store.Neighborhood, w space.Config, d float64, k int) *store.Neighborhood
}

// Evaluate returns λ(cfg), interpolating when the support suffices and
// simulating otherwise, per lines 7-24 of Algorithms 1-2. It is the
// background-context form of EvaluateContext.
func (e *Evaluator) Evaluate(cfg space.Config) (Result, error) {
	return e.EvaluateContext(context.Background(), cfg)
}

// EvaluateContext is Evaluate under a request context: a cancelled or
// expired ctx aborts the query — before the simulator starts, or inside
// it when the simulator implements ContextSimulator — and surfaces ctx's
// error. A query abandoned this way leaves the store and the activity
// counters untouched (except for the simulator time already spent, which
// stays in SimTime so the Eq. 2 model keeps measuring real cost).
func (e *Evaluator) EvaluateContext(ctx context.Context, cfg space.Config) (Result, error) {
	return e.evaluateLive(ctx, cfg, nil, RequestOptions{})
}

// evaluateLive answers one query against the live store: exact hit,
// interpolation, or a coalesced simulation that is inserted into the
// store before any sharing caller observes it. eng, when non-nil,
// bounds concurrent simulations through the Engine's admission control
// (with deadline-aware shedding unless disabled); only flight owners
// hold a slot, so coalesced followers never consume capacity. When the
// simulation tier refuses the request on capacity grounds and ro opts
// in, the brownout fallback serves a degraded surrogate-only answer
// instead of the error.
func (e *Evaluator) evaluateLive(ctx context.Context, cfg space.Config, eng *Engine, ro RequestOptions) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	qs := e.scratch.Get().(*queryScratch)
	res, ok := e.answerFromStore(cfg, qs)
	e.scratch.Put(qs)
	if ok {
		return res, nil
	}
	lam, coalesced, err := e.simulateShared(ctx, cfg, &e.stats, eng, true)
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

// rawSimulate runs one (uncoalesced) simulation, charging the wall time
// to stats and wrapping simulator failures; cancellations pass through
// unwrapped so callers and coalesced followers can recognise them.
func (e *Evaluator) rawSimulate(ctx context.Context, cfg space.Config, stats *counters) (float64, error) {
	start := time.Now()
	lam, err := simulate(ctx, e.sim, cfg)
	elapsed := time.Since(start)
	stats.simTime.Add(int64(elapsed))
	if err == nil {
		// Only completed simulations feed the shedder's latency
		// estimate: failures (pool-down refusals, dead workers) return
		// in microseconds and would talk the EWMA down exactly when
		// capacity is scarcest.
		e.observeSimLatency(elapsed)
	}
	if err != nil {
		if isContextError(err) {
			return 0, err
		}
		return 0, fmt.Errorf("evaluator: simulation of %v failed: %w", cfg, err)
	}
	return lam, nil
}

// isContextError reports whether err stems from context cancellation or
// deadline expiry.
func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// answerFromStore resolves a live query without simulating when
// possible: an exact store hit costs nothing (the optimiser revisiting a
// configuration), and a sufficient neighbourhood is kriged as a support
// group of one. The second return value reports whether an answer was
// produced. The neighbourhood search and the interpolation inputs run
// on qs's reused buffers, so a steady-state answer performs (at most)
// one allocation.
func (e *Evaluator) answerFromStore(cfg space.Config, qs *queryScratch) (Result, bool) {
	if lam, ok := e.store.Lookup(cfg); ok {
		return Result{Lambda: lam, Source: Simulated}, true
	}
	support, ok := e.gatherSupport(e.store, cfg, qs)
	if !ok {
		return Result{}, false
	}
	res := e.krigeOne(support, cfg, &e.stats, qs)
	return res, res.Source == Interpolated
}

// gatherSupport collects the kriging support of one query, or reports
// ok=false when interpolation is off or the neighbourhood stays at or
// below NnMin. It is shared by the live path and EvaluateAll's
// pre-pass, so both resolve exactly the same support (same points, same
// order) for the same view.
func (e *Evaluator) gatherSupport(view storeView, cfg space.Config, qs *queryScratch) (*store.Neighborhood, bool) {
	if e.opts.D <= 0 {
		return nil, false
	}
	// With a support cap above the decision threshold — every practical
	// configuration — the radius query is capped at the k nearest too:
	// min(count, k) > NnMin decides exactly like the full count (k >
	// NnMin), the shell-pruned search stops early on dense stores, and
	// the resulting support is bit-identical to NearestK of the full
	// neighbourhood. The k <= NnMin corner keeps the uncapped query so
	// the decision still sees the true count.
	k := e.opts.MaxSupport
	if k <= e.opts.NnMin {
		k = 0
	}
	nb := &qs.nb
	view.NearestKInto(nb, cfg, e.opts.D, k)
	// Adaptive neighbourhood: grow the radius in unit steps until the
	// support suffices or DMax is reached.
	for d := e.opts.D + 1; nb.Len() <= e.opts.NnMin && d <= e.opts.DMax; d++ {
		view.NearestKInto(nb, cfg, d, k)
	}
	if nb.Len() <= e.opts.NnMin {
		return nil, false
	}
	support := nb
	if k == 0 {
		// The rare cap-below-threshold configuration still truncates its
		// interpolation support (allocating, as before).
		support = nb.NearestK(e.opts.MaxSupport)
	}
	return support, true
}

// krigeOne kriges cfg from the support nb as a group of one (see krige;
// a nil stats is the gate-waived brownout mode). The kriging system
// cache stores defensive copies of whatever it retains, so qs's buffers
// are free for the next query.
func (e *Evaluator) krigeOne(nb *store.Neighborhood, cfg space.Config, stats *counters, qs *queryScratch) Result {
	qs.x = cfgFloats(qs.x[:0], cfg)
	qs.one[0] = qs.x
	out := grow(&qs.out, 1)
	e.krige(nb.Coords, nb.Values, qs.one[:], out, stats, qs)
	return out[0]
}

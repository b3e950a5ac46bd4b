package evaluator

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/space"
	"repro/internal/store"
)

// EvaluateAll answers a batch of independent queries. A pre-pass on the
// calling goroutine answers exact hits and sorts every other query into
// a support group (batch members whose neighbourhood search resolves the
// same support) or a simulation. A bounded worker pool then claims those
// items: a group is kriged through one blocked multi-RHS solve (see
// BatchPredictor), a simulation runs the simulator, so the simulator's
// latency AND the kriging linear algebra scale across cores. Answers are
// bit-identical to kriging each query alone. It is the
// background-context form of EvaluateAllContext.
//
// The batch semantics match issuing the queries one at a time EXCEPT that
// no query in the batch observes another batch member — neither as an
// exact store hit nor as kriging support: every decision runs against an
// immutable snapshot of the store taken on entry. (A configuration
// duplicated inside the batch is answered once, by its first occurrence,
// whatever the worker count; later occurrences return a copy of that
// Result, with Coalesced set when it was simulated — counted in
// Stats.NCoalesced like any coalesced follower — and the store gains one
// entry for it.) Sequential issuing lets a later query krige from an
// earlier query's freshly stored simulation (min+1 sibling candidates
// sit at L1 distance 2 from each other, inside the usual radius), so a
// batch can legitimately return different — equally valid —
// interpolations than the one-at-a-time order. Both obey the paper's
// rule of never kriging from unsimulated values; the batch is simply the
// order-free reading of Algorithm 2's competition, whose Nv candidates
// are independent increments of one incumbent.
//
// Determinism: results are indexed by input position, interpolations
// depend only on the entry snapshot, and the store absorbs the new
// simulation results in input order after the whole batch has succeeded —
// so a batch leaves the evaluator in the same state regardless of worker
// count or scheduling.
//
// Workers bounds the in-flight simulations; zero selects GOMAXPROCS. The
// Simulator must be safe for concurrent use. On failure the batch stops
// claiming further queries, the earliest (by input order) observed error
// is reported, and the store is left untouched.
//
// Batch simulations do not enter the single-flight table: a batch
// coalesces repeats within itself only, never with live queries or
// other batches.
func (e *Evaluator) EvaluateAll(cfgs []space.Config, workers int) ([]Result, error) {
	return e.EvaluateAllContext(context.Background(), cfgs, workers)
}

// EvaluateAllContext is EvaluateAll under a request context. Cancelling
// ctx aborts the batch promptly: workers stop claiming queries, a
// ContextSimulator is interrupted mid-simulation (a plain Simulator
// finishes its current simulation first — at most one simulation latency
// of delay), and the call returns ctx.Err(). A cancelled batch is
// discarded whole, exactly like a failed one: no store insert, no
// counter movement — even the simulator time its workers burnt is
// discarded with the batch accumulator, so the evaluator state is as if
// the batch had never been issued. It is Engine.EvaluateAll on the
// evaluator's unbounded engine.
func (e *Evaluator) EvaluateAllContext(ctx context.Context, cfgs []space.Config, workers int) ([]Result, error) {
	return e.eng.EvaluateAll(ctx, cfgs, workers)
}

// EvaluateAll answers a batch with the snapshot semantics of
// Evaluator.EvaluateAll under ctx (see EvaluateAllContext), admitting
// every member simulation through the engine: workers bounds the batch's
// own parallelism, and the engine's bound caps the simulations running
// at once across the batch and every other caller. A member the shedder
// refuses fails the whole batch with its *OverloadError; the admission
// counters (NShed, NQueueExpired) keep such refusals even though the
// batch's other counters are discarded with it.
func (g *Engine) EvaluateAll(ctx context.Context, cfgs []space.Config, workers int) ([]Result, error) {
	e := g.ev
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]Result, len(cfgs))
	if len(cfgs) == 0 {
		return results, ctx.Err()
	}
	// Box the snapshot into the storeView interface once: handing the
	// struct value to the neighbour search per query would re-box (and
	// allocate) on every call.
	var snap storeView = e.store.Snapshot()
	// The pre-pass answers exact hits and sorts the rest into support
	// groups and simulations; the workers claim those items, groups
	// first (each is microseconds of kriging, and a member the group
	// cannot answer is simulated by the same worker right away).
	groups, sims, dups := e.batchPredictPrepass(ctx, snap, cfgs, results)
	items := len(groups) + len(sims)
	if workers > items {
		workers = items
	}
	var (
		simulated = make([]bool, len(cfgs))
		errs      = make([]error, len(cfgs))
		failed    atomic.Bool
		next      atomic.Int64
		wg        sync.WaitGroup
		// The batch's activity accumulates here and merges into the live
		// stats only on success, so a failed or cancelled (discarded)
		// batch cannot skew SimTime/NSim and the Eq. 2 model built on
		// them.
		batchStats counters
	)
	// simulateMember simulates cfgs[idx] inside the engine's admission
	// bound; the store insert is deferred to the batch commit below.
	simulateMember := func(idx int) {
		var lam float64
		err := g.admit(ctx)
		if err == nil {
			lam, err = e.rawSimulate(ctx, cfgs[idx], &batchStats)
			g.release()
		}
		if err != nil {
			errs[idx] = err
			failed.Store(true)
			return
		}
		results[idx] = Result{Lambda: lam, Source: Simulated}
		simulated[idx] = true
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one query scratch for its whole run: the
			// transformed values and group answers are reused across
			// every group the worker claims.
			qs := e.scratch.Get().(*queryScratch)
			defer e.scratch.Put(qs)
			for {
				// Once any query has failed — or the request is cancelled —
				// the whole batch's results will be discarded, so stop
				// claiming work rather than burn hours of simulation on
				// answers nobody will see.
				if failed.Load() || ctx.Err() != nil {
					return
				}
				item := int(next.Add(1)) - 1
				if item >= items {
					return
				}
				if item >= len(groups) {
					simulateMember(sims[item-len(groups)])
					continue
				}
				g := &groups[item]
				out := grow(&qs.out, len(g.idxs))
				e.krige(g.xs, g.ys, g.qx, out, &batchStats, qs)
				for i, idx := range g.idxs {
					if out[i].Source == Interpolated {
						results[idx] = out[i]
					} else {
						simulateMember(idx)
					}
				}
			}
		}()
	}
	wg.Wait()
	// A dead context outranks any per-query error it induced: the caller
	// asked the batch to stop, and that is what happened.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if failed.Load() {
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	// Later occurrences of a configuration take their owner's answer,
	// counted like it: a copy of a simulation is a coalesced follower, a
	// copy of a kriged answer one more interpolation.
	for _, d := range dups {
		r := results[d[1]]
		if simulated[d[1]] {
			r.Coalesced = true
			batchStats.nCoalesced.Add(1)
		} else if r.Source == Interpolated {
			batchStats.nInterp.Add(1)
			batchStats.sumNeigh.Add(int64(r.Neighbors))
		}
		results[d[0]] = r
	}
	// Store updates happen once everything succeeded, in input order,
	// keeping the store contents (and NearestK tie-breaking in later
	// queries) deterministic. The whole commit goes through the bulk
	// write path: one view publication instead of one per simulation
	// result, and one entry per distinct configuration.
	commit := make([]store.Entry, 0, len(cfgs))
	for idx := range cfgs {
		if simulated[idx] {
			commit = append(commit, store.Entry{Config: cfgs[idx], Lambda: results[idx].Lambda})
		}
	}
	e.store.AddBatch(commit)
	if err := e.store.Err(); err != nil {
		// Durable store gone fail-stop: the commit was not persisted, so
		// the batch's simulated answers are not store-backed and must not
		// be acknowledged.
		return nil, err
	}
	e.stats.merge(&batchStats)
	return results, nil
}

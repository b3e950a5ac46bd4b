package evaluator

import "repro/internal/space"

// RequestOptions carries per-request evaluation policy through
// Engine.EvaluateWith. The zero value is the strict default: no
// degraded answers, exactly the semantics of Engine.Evaluate.
type RequestOptions struct {
	// AllowDegraded opts this request into brownout serving: when the
	// simulation tier is refusing work (any error RetryAfter reports:
	// the admission shedder's ErrOverloaded, or a remote pool latched
	// down), the engine may answer with a surrogate-only kriging
	// prediction from the current store instead of the error. Such an
	// answer is flagged Result.Degraded, charges no simulation, and is
	// NEVER inserted into the store — it is a service-quality fallback,
	// not simulator truth. Requests that feed commit decisions (the
	// optimisers, the batch path) must leave this false.
	AllowDegraded bool
}

// degradedAnswer serves the brownout fallback for one query: a kriging
// prediction over whatever support the live store holds, with the
// admission gates relaxed — any non-empty neighbourhood within D
// qualifies (the NnMin threshold and the variance gate are waived,
// because the alternative is no answer at all). The prediction runs the
// exact normal pipeline (same neighbour search, same krige step in its
// gate-waived mode), so for a frozen store it is bit-identical to
// Predict on a snapshot of that store; it only skips the gates. Nothing is
// inserted, no simulation is charged; NDegraded counts the answer.
//
// ok=false means the store cannot support even a degraded answer
// (interpolation disabled or zero neighbours); the caller surfaces the
// original capacity error.
func (e *Evaluator) degradedAnswer(cfg space.Config) (Result, bool) {
	qs := e.scratch.Get().(*queryScratch)
	defer e.scratch.Put(qs)
	// The config may have been simulated and stored since this request's
	// miss (by a request that won admission before capacity ran out);
	// hand out the stored truth, not a degraded estimate of it.
	if lam, ok := e.store.Lookup(cfg); ok {
		return Result{Lambda: lam, Source: Simulated}, true
	}
	if e.opts.D <= 0 {
		return Result{}, false
	}
	nb := e.store.NearestKInto(&qs.nb, cfg, e.opts.D, e.opts.MaxSupport)
	if nb.Len() == 0 {
		return Result{}, false
	}
	res := e.krigeOne(nb, cfg, nil, qs)
	if res.Source != Interpolated {
		return Result{}, false
	}
	e.stats.nDegraded.Add(1)
	res.Degraded = true
	return res, true
}

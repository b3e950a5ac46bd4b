package evaluator

import (
	"errors"
	"time"

	"repro/internal/space"
)

// RequestOptions carries per-request evaluation policy through the
// Engine's session API. The zero value is the strict default: no
// degraded answers, exactly the semantics of Engine.Evaluate.
type RequestOptions struct {
	// AllowDegraded opts this request into brownout serving: when the
	// simulation tier is refusing work (the admission shedder returned
	// ErrOverloaded, or a circuit breaker in front of the simulator is
	// open), the engine may answer with a surrogate-only kriging
	// prediction from the current store instead of the error. Such an
	// answer is flagged Result.Degraded, charges no simulation, and is
	// NEVER inserted into the store — it is a service-quality fallback,
	// not simulator truth. Requests that feed commit decisions (the
	// optimisers, the batch path) must leave this false.
	AllowDegraded bool
}

// unavailableError is the structural shape of a circuit-breaker
// rejection (internal/breaker's open-state error implements it).
// Sniffing the method keeps the evaluator free of a breaker import, the
// same decoupling trick as remoteCounter.
type unavailableError interface {
	error
	// SimUnavailable returns the suggested wait until the breaker will
	// probe again.
	SimUnavailable() time.Duration
}

// brownoutEligible reports whether err is the kind of failure degraded
// serving may paper over: capacity refusals (shed, breaker open), not
// simulator or store failures — a wrong answer must never hide a bug.
func brownoutEligible(err error) bool {
	if errors.Is(err, ErrOverloaded) {
		return true
	}
	var ue unavailableError
	return errors.As(err, &ue)
}

// degradedAnswer serves the brownout fallback for one query: a kriging
// prediction over whatever support the live store holds, with the
// admission gates relaxed — any non-empty neighbourhood within D..DMax
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
	k := e.opts.MaxSupport
	nb := &qs.nb
	e.store.NearestKInto(nb, cfg, e.opts.D, k)
	for d := e.opts.D + 1; nb.Len() == 0 && d <= e.opts.DMax; d++ {
		e.store.NearestKInto(nb, cfg, d, k)
	}
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

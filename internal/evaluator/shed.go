package evaluator

import (
	"errors"
	"fmt"
	"time"
)

// ErrOverloaded is the sentinel for deadline-aware load shedding: the
// engine predicted that a request would expire while queued for an
// admission slot and rejected it immediately instead of parking it.
// Shed errors always wrap an *OverloadError carrying the wait estimate,
// so service callers can compute a Retry-After; match with
// errors.Is(err, ErrOverloaded).
var ErrOverloaded = errors.New("evaluator: overloaded")

// OverloadError is the typed rejection of the deadline-aware shedder.
// It satisfies errors.Is(err, ErrOverloaded).
type OverloadError struct {
	// EstimatedWait is the queue wait the shedder predicted for this
	// request at rejection time — the natural Retry-After hint.
	EstimatedWait time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("evaluator: overloaded: estimated queue wait %v exceeds request deadline", e.EstimatedWait)
}

// Is matches the ErrOverloaded sentinel.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// RetryAfterHint returns the suggested client backoff (the estimated
// time until admission capacity frees up). The HTTP layer maps it onto
// the Retry-After header of the 503 response.
func (e *OverloadError) RetryAfterHint() time.Duration { return e.EstimatedWait }

// RetryAfter reports whether err is a capacity refusal — the shedder's
// *OverloadError, or a remote pool's *UnavailableError while its fleet
// is down — and the client backoff it suggests. The marker is the
// RetryAfterHint method, so the evaluator needs no import of the pool.
// Refusals may be served degraded and map to 503 + Retry-After.
func RetryAfter(err error) (time.Duration, bool) {
	var ra interface{ RetryAfterHint() time.Duration }
	if errors.As(err, &ra) {
		return ra.RetryAfterHint(), true
	}
	return 0, false
}

// ewmaShift is the EWMA smoothing of the simulation-latency estimate:
// est += (sample - est) / 2^ewmaShift — the TCP RTT estimator's gain of
// 1/8, heavy enough to ride out one outlier, light enough to track a
// workload shift within a few simulations.
const ewmaShift = 3

// observeSimLatency folds one completed simulation's wall time into the
// latency estimate. The update is a racy read-modify-write on purpose:
// a lost update under contention skews the estimate by one sample,
// which the next sample repairs — cheaper than a CAS loop on the sim
// hot path.
func (e *Evaluator) observeSimLatency(d time.Duration) {
	old := e.simEWMA.Load()
	if old == 0 {
		// First sample seeds the estimate directly; easing up from zero
		// would under-predict queue waits for the first dozen requests,
		// exactly when a cold service is most likely to be slammed.
		e.simEWMA.Store(int64(d))
		return
	}
	e.simEWMA.Store(old + (int64(d)-old)>>ewmaShift)
}

// SimLatencyEstimate returns the EWMA of recent simulation wall times —
// zero until the first simulation completes.
func (e *Evaluator) SimLatencyEstimate() time.Duration {
	return time.Duration(e.simEWMA.Load())
}

package simpool

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/space"
)

// Simulator is the work a Worker serves: structurally identical to
// evaluator.Simulator, redeclared here so the pool layer depends on
// nothing above internal/space.
type Simulator interface {
	// Evaluate returns λ(cfg).
	Evaluate(cfg space.Config) (float64, error)
	// Nv returns the number of optimisation variables.
	Nv() int
}

// ContextSimulator is a Simulator whose simulations honour mid-run
// cancellation. The Worker prefers it, so an abandoned request (client
// disconnect, hedge loser, drained pool) stops burning simulator time.
type ContextSimulator interface {
	Simulator
	EvaluateContext(ctx context.Context, cfg space.Config) (float64, error)
}

// simulateRequest is the body of POST /v1/simulate. The worker answers
// from the wrapped simulator alone; scheduling state (retries, hedges)
// lives entirely in the client.
type simulateRequest struct {
	// Config is the integer configuration vector to simulate.
	Config []int `json:"config"`
}

// simulateResponse carries one simulation result.
type simulateResponse struct {
	Lambda float64 `json:"lambda"`
}

// healthzResponse is the body of GET /healthz; the pool's probe loop
// uses Nv to catch a worker serving the wrong benchmark before any
// simulation is dispatched to it.
type healthzResponse struct {
	Status   string `json:"status"`
	Nv       int    `json:"nv"`
	Capacity int    `json:"capacity"`
	Active   int    `json:"active"`
	Served   uint64 `json:"served"`
}

// errorResponse is the uniform error body, mirroring internal/httpapi.
type errorResponse struct {
	Error string `json:"error"`
}

// Typed pool failures. All are terminal for the query that observes
// them; the evaluator wraps them (errors.Is-transparently) and evald's
// error mapping surfaces them as 502 — an upstream failure, never a
// hang — except *UnavailableError, a 503 with Retry-After.
var (
	// ErrNoWorkers reports that every worker in the pool is quarantined
	// and the request's retry budget ran out before any probe brought
	// one back.
	ErrNoWorkers = errors.New("simpool: no live workers")
	// ErrPoolClosed reports a request issued against a closed pool.
	ErrPoolClosed = errors.New("simpool: pool is closed")
	// ErrSimulation reports that a worker ran the simulation and the
	// simulator itself failed — a deterministic outcome that no retry or
	// other worker can change.
	ErrSimulation = errors.New("simpool: simulation failed on worker")
)

// UnavailableError is the fast failure of a pool latched down: a
// request already exhausted its attempts against a fully quarantined
// fleet, so later requests fail at once until a probe readmits a
// worker. It satisfies errors.Is(err, ErrNoWorkers).
type UnavailableError struct {
	// RetryAfter is the time until the pool's next readmission probe.
	RetryAfter time.Duration
}

// Error implements error.
func (e *UnavailableError) Error() string {
	return fmt.Sprintf("%v: pool is down, next probe in %v", ErrNoWorkers, e.RetryAfter)
}

// Is matches the ErrNoWorkers sentinel.
func (e *UnavailableError) Is(target error) bool { return target == ErrNoWorkers }

// RetryAfterHint returns the suggested client backoff; it marks the
// error as a capacity refusal for the evaluator and the HTTP layer.
func (e *UnavailableError) RetryAfterHint() time.Duration { return e.RetryAfter }

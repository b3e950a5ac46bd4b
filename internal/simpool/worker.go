package simpool

import (
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/httpx"
	"repro/internal/space"
)

// WorkerOptions configures a Worker server.
type WorkerOptions struct {
	// Sim is the simulator the worker serves. Required; a
	// ContextSimulator is cancelled mid-run when the request dies.
	Sim Simulator
	// Key is the API key clients must present (Bearer or X-API-Key);
	// empty disables authentication — development mode only.
	Key string
	// Capacity bounds the simulations running concurrently on this
	// worker; requests beyond it queue on the slot semaphore (bounded by
	// their own context). Zero selects 1 — one simulation at a time, the
	// model of one exclusive simulator license/core per process.
	Capacity int
	// Logger receives one structured line per request; nil discards.
	Logger *slog.Logger
}

// Worker is the server half of the remote simulator pool: the HTTP face
// of one simulator process (cmd/simd). Build one with NewWorker, then
// either mount Handler on an http.Server or call ServeListener, which
// also owns the graceful drain.
type Worker struct {
	sim      Simulator
	key      string
	capacity int
	slots    chan struct{}
	logger   *slog.Logger
	drain    httpx.Drain
	active   atomic.Int64
	served   atomic.Uint64
	mux      *http.ServeMux
}

// NewWorker builds the worker server around a simulator.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Sim == nil {
		panic("simpool: WorkerOptions.Sim is required")
	}
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = 1
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	w := &Worker{
		sim:      opts.Sim,
		key:      opts.Key,
		capacity: capacity,
		slots:    make(chan struct{}, capacity),
		logger:   logger,
	}
	w.mux = http.NewServeMux()
	// The simulate route runs the full middleware stack; the health
	// probe skips auth so the pool (and orchestrators) need no
	// credentials to ask "are you alive".
	w.mux.Handle("/v1/simulate", w.chain(http.MethodPost, w.handleSimulate))
	w.mux.HandleFunc("/healthz", w.handleHealthz)
	return w
}

// Handler returns the fully assembled HTTP handler.
func (w *Worker) Handler() http.Handler { return w.mux }

// chain assembles one route's middleware, outermost first: panic
// recovery, request logging, the drain gate, method dispatch and API-key
// authentication; a worker has one client, the pool, so it has no
// tenants or quotas.
func (w *Worker) chain(method string, h http.HandlerFunc) http.Handler {
	return httpx.Recover(w.logger, w.logRequests(w.drain.Gate(httpx.AllowMethod(method, w.authenticate(h)))))
}

func (w *Worker) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		sw := &httpx.StatusWriter{ResponseWriter: rw}
		start := time.Now()
		next.ServeHTTP(sw, r)
		w.logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.Status(),
			"latency", time.Since(start),
			"active", w.active.Load(),
		)
	})
}

func (w *Worker) authenticate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if w.key == "" {
			next.ServeHTTP(rw, r)
			return
		}
		key := httpx.APIKey(rw, r, "simd")
		if key == "" {
			return
		}
		if subtle.ConstantTimeCompare([]byte(w.key), []byte(key)) != 1 {
			httpx.WriteError(rw, http.StatusUnauthorized, "invalid API key")
			return
		}
		next.ServeHTTP(rw, r)
	})
}

// handleSimulate answers POST /v1/simulate: queue for one of the
// worker's concurrency slots (bounded by the request context), run the
// simulation, return λ. Status codes draw a hard line the pool's retry
// policy depends on: 422 means the SIMULATOR failed — deterministic, no
// retry will change it — while 5xx/connection failures mean the WORKER
// failed and the configuration is safe to requeue elsewhere.
func (w *Worker) handleSimulate(rw http.ResponseWriter, r *http.Request) {
	var req simulateRequest
	if !httpx.Decode(rw, r, &req) {
		return
	}
	cfg := space.Config(req.Config)
	if len(cfg) != w.sim.Nv() {
		httpx.WriteError(rw, http.StatusBadRequest,
			fmt.Sprintf("config has %d variables, want %d", len(cfg), w.sim.Nv()))
		return
	}
	ctx := r.Context()
	select {
	case w.slots <- struct{}{}:
		defer func() { <-w.slots }()
	case <-ctx.Done():
		// The client (pool) gave up while queued — hedge loser cancelled,
		// request deadline, or pool shutdown. 499 is for the log only.
		httpx.WriteError(rw, 499, "request abandoned while queued")
		return
	}
	w.active.Add(1)
	defer w.active.Add(-1)
	var (
		lam float64
		err error
	)
	if cs, ok := w.sim.(ContextSimulator); ok {
		lam, err = cs.EvaluateContext(ctx, cfg)
	} else {
		lam, err = w.sim.Evaluate(cfg)
	}
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		httpx.WriteError(rw, 499, "request abandoned mid-simulation")
	case err != nil:
		httpx.WriteError(rw, http.StatusUnprocessableEntity, "simulate: "+err.Error())
	default:
		w.served.Add(1)
		httpx.WriteJSON(rw, http.StatusOK, simulateResponse{Lambda: lam})
	}
}

// handleHealthz reports worker liveness and identity. 503 while
// draining, so the pool quarantines a worker that is going away instead
// of dispatching into its shutdown; the Nv field lets the probe catch a
// worker serving the wrong benchmark before any simulation reaches it.
func (w *Worker) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	if w.drain.Draining() {
		httpx.WriteError(rw, http.StatusServiceUnavailable, "draining")
		return
	}
	httpx.WriteJSON(rw, http.StatusOK, healthzResponse{
		Status:   "ok",
		Nv:       w.sim.Nv(),
		Capacity: w.capacity,
		Active:   int(w.active.Load()),
		Served:   w.served.Load(),
	})
}

// ServeListener serves the worker API on ln until ctx is cancelled,
// then drains gracefully: the gate flips (healthz 503, new simulates
// refused with 503 + Retry-After, the grace remaining), http.Server.Shutdown waits out in-flight simulations up to
// grace, and the listener closes. It returns nil on a clean drain or
// the server error that stopped it.
func (w *Worker) ServeListener(ctx context.Context, ln net.Listener, grace time.Duration) error {
	return w.drain.Serve(ctx, ln, w.Handler(), grace)
}

// discardHandler is a no-op slog handler (slog.DiscardHandler arrived
// in go 1.24; go.mod says go 1.21).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

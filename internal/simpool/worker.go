package simpool

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

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
	draining atomic.Bool
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

// StartDraining flips the worker into drain mode: /healthz turns 503 so
// the pool quarantines it, and new simulate requests are refused with
// 503 while those already holding a slot run to completion. One-way.
func (w *Worker) StartDraining() { w.draining.Store(true) }

// chain assembles one route's middleware, outermost first: panic
// recovery, request logging, the drain gate, method dispatch and API-key
// authentication — the internal/httpapi stack, minus tenants and quotas
// (a worker has exactly one client: the pool).
func (w *Worker) chain(method string, h http.HandlerFunc) http.Handler {
	return w.recoverPanics(w.logRequests(w.drainGate(w.allowMethod(method, w.authenticate(h)))))
}

func (w *Worker) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				w.logger.Error("panic in handler",
					"path", r.URL.Path, "panic", rec, "stack", string(debug.Stack()))
				writeJSONError(rw, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(rw, r)
	})
}

// wstatusWriter captures the response status for the request log.
type wstatusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *wstatusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *wstatusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (w *Worker) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		sw := &wstatusWriter{ResponseWriter: rw}
		start := time.Now()
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		w.logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"latency", time.Since(start),
			"active", w.active.Load(),
		)
	})
}

func (w *Worker) drainGate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if w.draining.Load() {
			rw.Header().Set("Retry-After", "1")
			writeJSONError(rw, http.StatusServiceUnavailable, "worker is draining")
			return
		}
		next.ServeHTTP(rw, r)
	})
}

func (w *Worker) allowMethod(method string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			rw.Header().Set("Allow", method)
			writeJSONError(rw, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		next.ServeHTTP(rw, r)
	})
}

func (w *Worker) authenticate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if w.key == "" {
			next.ServeHTTP(rw, r)
			return
		}
		key := requestKey(r)
		if key == "" {
			rw.Header().Set("WWW-Authenticate", `Bearer realm="simd"`)
			writeJSONError(rw, http.StatusUnauthorized, "missing API key")
			return
		}
		if subtle.ConstantTimeCompare([]byte(w.key), []byte(key)) != 1 {
			writeJSONError(rw, http.StatusUnauthorized, "invalid API key")
			return
		}
		next.ServeHTTP(rw, r)
	})
}

// requestKey extracts the client credential (Bearer or X-API-Key).
func requestKey(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		if rest, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return strings.TrimSpace(rest)
		}
		return ""
	}
	return strings.TrimSpace(r.Header.Get("X-API-Key"))
}

func writeJSONBody(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}

func writeJSONError(rw http.ResponseWriter, status int, msg string) {
	writeJSONBody(rw, status, errorResponse{Error: msg})
}

// decodeStrict parses a JSON body with unknown fields rejected and a
// 1 MiB cap, answering 400/413 itself when the body is malformed.
func decodeStrict(rw http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(rw, r.Body, 1<<20)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSONError(rw, http.StatusRequestEntityTooLarge, "request body over 1 MiB")
			return false
		}
		writeJSONError(rw, http.StatusBadRequest, "malformed JSON body: "+err.Error())
		return false
	}
	if dec.More() {
		writeJSONError(rw, http.StatusBadRequest, "trailing data after JSON body")
		return false
	}
	return true
}

// handleSimulate answers POST /v1/simulate: queue for one of the
// worker's concurrency slots (bounded by the request context), run the
// simulation, return λ. Status codes draw a hard line the pool's retry
// policy depends on: 422 means the SIMULATOR failed — deterministic, no
// retry will change it — while 5xx/connection failures mean the WORKER
// failed and the configuration is safe to requeue elsewhere.
func (w *Worker) handleSimulate(rw http.ResponseWriter, r *http.Request) {
	var req simulateRequest
	if !decodeStrict(rw, r, &req) {
		return
	}
	cfg := space.Config(req.Config)
	if len(cfg) != w.sim.Nv() {
		writeJSONError(rw, http.StatusBadRequest,
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
		writeJSONError(rw, 499, "request abandoned while queued")
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
		writeJSONError(rw, 499, "request abandoned mid-simulation")
	case err != nil:
		writeJSONError(rw, http.StatusUnprocessableEntity, "simulate: "+err.Error())
	default:
		w.served.Add(1)
		writeJSONBody(rw, http.StatusOK, simulateResponse{Lambda: lam})
	}
}

// handleHealthz reports worker liveness and identity. 503 while
// draining, so the pool quarantines a worker that is going away instead
// of dispatching into its shutdown; the Nv field lets the probe catch a
// worker serving the wrong benchmark before any simulation reaches it.
func (w *Worker) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	if w.draining.Load() {
		writeJSONError(rw, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSONBody(rw, http.StatusOK, healthzResponse{
		Status:   "ok",
		Nv:       w.sim.Nv(),
		Capacity: w.capacity,
		Active:   int(w.active.Load()),
		Served:   w.served.Load(),
	})
}

// ServeListener serves the worker API on ln until ctx is cancelled,
// then drains gracefully: the gate flips (healthz 503, new simulates
// refused), http.Server.Shutdown waits out in-flight simulations up to
// grace, and the listener closes. It returns nil on a clean drain or
// the server error that stopped it.
func (w *Worker) ServeListener(ctx context.Context, ln net.Listener, grace time.Duration) error {
	hs := &http.Server{
		Handler:           w.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	drained := make(chan error, 1)
	go func() {
		<-ctx.Done()
		w.StartDraining()
		shCtx := context.Background()
		if grace > 0 {
			var cancel context.CancelFunc
			shCtx, cancel = context.WithTimeout(shCtx, grace)
			defer cancel()
		}
		drained <- hs.Shutdown(shCtx)
	}()
	err := hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		err = <-drained
	}
	return err
}

// discardHandler is a no-op slog handler (slog.DiscardHandler arrived
// in go 1.24; the module still supports 1.22).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

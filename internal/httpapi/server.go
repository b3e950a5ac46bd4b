// Package httpapi is the HTTP face of the evaluation engine: the evald
// service's router, JSON codecs and middleware. It exposes the
// Evaluator/Engine pair from internal/evaluator as a small REST surface —
//
//	POST /v1/evaluate   one configuration query (request-scoped deadline)
//	POST /v1/batch      Engine.EvaluateAll semantics, input-ordered results
//	GET  /v1/stats      activity counters + coalescing/admission gauges
//	GET  /healthz       process liveness (always 200 while serving)
//	GET  /readyz        readiness (503 while draining or after a sticky
//	                    store failure)
//
// — with API-key authentication, per-tenant concurrent-request quotas,
// structured request logging (latency, tenant, coalesced-or-not) and
// panic recovery. Every tenant shares one evaluator: exact hits and
// kriging support come from the shared store, and identical concurrent
// misses coalesce onto one simulation through the single-flight table,
// which is what makes one service instance cheap under colliding
// multi-tenant load.
package httpapi

import (
	"context"
	"log/slog"
	"net"
	"net/http"
	"time"

	"repro/internal/evaluator"
	"repro/internal/httpx"
	"repro/internal/simpool"
	"repro/internal/space"
)

// Tenant is one API-key principal (mirrors config.Tenant so the HTTP
// layer stays decoupled from the environment loader).
type Tenant struct {
	Name  string
	Key   string
	Quota int // max concurrent in-flight requests; 0 = unlimited
	// AllowDegraded opts every request of this tenant into brownout
	// serving (surrogate-only degraded answers instead of 503 when the
	// simulation tier refuses work); per-request allow_degraded grants
	// the same thing one request at a time.
	AllowDegraded bool
}

// Options configures a Server.
type Options struct {
	// Evaluator answers the queries. Required.
	Evaluator *evaluator.Evaluator
	// Engine admits every simulation the service runs, for
	// /v1/evaluate and /v1/batch alike; nil builds an unbounded engine.
	Engine *evaluator.Engine
	// Workers bounds the per-request worker pool of /v1/batch; zero
	// selects GOMAXPROCS.
	Workers int
	// Tenants is the API-key table; empty disables authentication and
	// serves every request as the anonymous tenant.
	Tenants []Tenant
	// Bounds, when non-nil, rejects configurations outside the
	// benchmark's search box with 400 before they reach the simulator.
	Bounds *space.Bounds
	// DefaultTimeout is applied to requests that carry no timeout_ms of
	// their own; zero means no server-imposed deadline.
	DefaultTimeout time.Duration
	// MaxBatch caps the configurations accepted by one /v1/batch
	// request; zero selects 4096.
	MaxBatch int
	// Logger receives one structured line per API request; nil selects
	// slog.Default().
	Logger *slog.Logger
	// Pool, when non-nil, is the remote simulator pool the evaluator
	// runs on; /v1/stats then carries its counters and per-worker
	// gauges, and the request log lines its activity deltas. Purely observational — the
	// evaluator owns the pool's use and lifecycle.
	Pool *simpool.Pool
}

// Server is the evald HTTP front end. Build one with New, mount
// Handler() on an http.Server (or use ServeListener, which also owns the
// graceful drain), and share it between all connections.
type Server struct {
	ev             *evaluator.Evaluator
	engine         *evaluator.Engine
	workers        int
	bounds         *space.Bounds
	defaultTimeout time.Duration
	maxBatch       int
	logger         *slog.Logger
	pool           *simpool.Pool
	tenants        []*tenantState
	anonymous      bool
	drain          httpx.Drain
	mux            *http.ServeMux
}

type tenantState struct {
	Tenant
	slots chan struct{} // nil when unlimited
}

// New builds the service around an evaluator.
func New(opts Options) *Server {
	if opts.Evaluator == nil {
		panic("httpapi: Options.Evaluator is required")
	}
	engine := opts.Engine
	if engine == nil {
		engine = opts.Evaluator.Engine(0)
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	maxBatch := opts.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 4096
	}
	s := &Server{
		ev:             opts.Evaluator,
		engine:         engine,
		workers:        opts.Workers,
		bounds:         opts.Bounds,
		defaultTimeout: opts.DefaultTimeout,
		maxBatch:       maxBatch,
		logger:         logger,
		pool:           opts.Pool,
		anonymous:      len(opts.Tenants) == 0,
	}
	for _, t := range opts.Tenants {
		ts := &tenantState{Tenant: t}
		if t.Quota > 0 {
			ts.slots = make(chan struct{}, t.Quota)
		}
		s.tenants = append(s.tenants, ts)
	}
	s.mux = http.NewServeMux()
	// The API routes run the full middleware stack; the health probes
	// skip auth and quotas so orchestrators need no credentials.
	s.mux.Handle("/v1/evaluate", s.api(http.MethodPost, s.handleEvaluate))
	s.mux.Handle("/v1/batch", s.api(http.MethodPost, s.handleBatch))
	s.mux.Handle("/v1/stats", s.api(http.MethodGet, s.handleStats))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s
}

// Handler returns the fully assembled HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeListener serves the API on ln until ctx is cancelled, then drains
// gracefully: /readyz turns 503 so load balancers stop routing here, new
// API requests are refused with 503 + Retry-After (the grace remaining),
// requests in flight get up to grace to finish (their simulations
// resolve through the engine as usual), and finally it closes the
// evaluator so a durable store's write-ahead log is
// cleanly synced. It returns once the drain is complete — nil on a clean
// shutdown, the evaluator's sticky durability error if the state store
// failed, or the server/listener error that stopped it.
func (s *Server) ServeListener(ctx context.Context, ln net.Listener, grace time.Duration) error {
	// Serve returns only once in-flight requests are done, so the state
	// store is never closed underneath them.
	err := s.drain.Serve(ctx, ln, s.Handler(), grace)
	if cerr := s.ev.Close(); err == nil {
		err = cerr
	}
	if serr := s.ev.Err(); err == nil {
		err = serr
	}
	return err
}

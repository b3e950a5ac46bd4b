package httpapi

import (
	"context"
	"crypto/subtle"
	"net/http"
	"time"

	"repro/internal/httpx"
)

// reqInfo is the per-request annotation record the handlers fill in and
// the logging middleware reports: which tenant ran the request and
// whether its simulation was coalesced onto another request's flight.
type reqInfo struct {
	tenant    string
	coalesced bool
	hasCoal   bool // coalesced is only meaningful on simulated answers
	degraded  bool // the answer was a surrogate-only brownout value
}

type reqInfoKey struct{}

func infoFrom(ctx context.Context) *reqInfo {
	info, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return info
}

// api assembles the middleware stack of one API route, outermost first:
// panic recovery, request logging, the drain gate, method dispatch,
// API-key authentication and the tenant's concurrency quota.
func (s *Server) api(method string, h http.HandlerFunc) http.Handler {
	return httpx.Recover(s.logger, s.logRequests(s.drain.Gate(httpx.AllowMethod(method, s.authenticate(s.withQuota(h))))))
}

// logRequests emits one structured line per request: method, path,
// status, latency, tenant, for simulated answers whether the request
// coalesced onto another request's simulation, and — when the
// evaluator runs on a remote simulator pool — the pool activity the
// request triggered (remote simulations, hedges, retries, requeues).
func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		info := &reqInfo{tenant: "anonymous"}
		sw := &httpx.StatusWriter{ResponseWriter: w}
		var r0, h0, t0, q0 uint64
		if s.pool != nil {
			r0, h0, t0, q0 = s.pool.RemoteSimCounts()
		}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, info)))
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.Status(),
			"latency", time.Since(start),
			"tenant", info.tenant,
		}
		if info.hasCoal {
			attrs = append(attrs, "coalesced", info.coalesced)
		}
		if info.degraded {
			attrs = append(attrs, "degraded", true)
		}
		if s.pool != nil {
			// Deltas are approximate under concurrent requests (the
			// counters are pool-global), but exact on a quiet service —
			// where per-request attribution is actually read.
			r1, h1, t1, q1 := s.pool.RemoteSimCounts()
			attrs = append(attrs,
				"remote_sims", r1-r0, "hedged", h1-h0, "retried", t1-t0, "requeued", q1-q0)
		}
		s.logger.Info("request", attrs...)
	})
}

// authenticate resolves the API key (Authorization: Bearer or X-API-Key)
// to a tenant. With an empty tenant table authentication is disabled and
// every request runs as "anonymous".
func (s *Server) authenticate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.anonymous {
			next.ServeHTTP(w, r)
			return
		}
		key := httpx.APIKey(w, r, "evald")
		if key == "" {
			return
		}
		// Linear scan with constant-time compares: tenant tables are
		// small, and this leaks no key-prefix timing.
		var tenant *tenantState
		for _, t := range s.tenants {
			if subtle.ConstantTimeCompare([]byte(t.Key), []byte(key)) == 1 {
				tenant = t
				break
			}
		}
		if tenant == nil {
			httpx.WriteError(w, http.StatusUnauthorized, "invalid API key")
			return
		}
		if info := infoFrom(r.Context()); info != nil {
			info.tenant = tenant.Name
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantKey{}, tenant)))
	})
}

type tenantKey struct{}

// withQuota holds one of the tenant's concurrent-request slots for the
// duration of the handler. A tenant at its quota is refused immediately
// with 429 — admission control degrades one noisy tenant, not the
// service.
func (s *Server) withQuota(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tenant, _ := r.Context().Value(tenantKey{}).(*tenantState)
		if tenant == nil || tenant.slots == nil {
			next.ServeHTTP(w, r)
			return
		}
		select {
		case tenant.slots <- struct{}{}:
			defer func() { <-tenant.slots }()
		default:
			// The tenant's slots free as its in-flight requests finish,
			// and those are paced by simulation capacity — so the
			// shedder's queue-wait estimate is the honest hint for when
			// a slot is likely to open (floor of 1s when the engine has
			// no estimate yet).
			w.Header().Set("Retry-After", httpx.RetryAfter(s.engine.EstimatedWait()))
			httpx.WriteError(w, http.StatusTooManyRequests, "tenant quota exhausted")
			return
		}
		next.ServeHTTP(w, r)
	})
}

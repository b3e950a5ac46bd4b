package httpapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/evaluator"
	"repro/internal/httpx"
	"repro/internal/space"
)

// evaluateRequest is the body of POST /v1/evaluate.
type evaluateRequest struct {
	// Config is the integer configuration vector to evaluate.
	Config []int `json:"config"`
	// TimeoutMS, when positive, bounds this request: the deadline is
	// mapped onto the query context, so an expired request cancels its
	// own (un-shared) simulation and returns 504.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// AllowDegraded opts this single request into brownout serving:
	// when the simulation tier is refusing work (admission shed or
	// remote pool down) the answer may be a surrogate-only kriging
	// prediction flagged "degraded":true instead of a 503. Tenants can
	// also opt in table-wide (the tenant policy field of
	// EVALD_API_KEYS); either switch suffices.
	AllowDegraded bool `json:"allow_degraded,omitempty"`
}

// evaluateResponse mirrors evaluator.Result.
type evaluateResponse struct {
	Lambda    float64 `json:"lambda"`
	Source    string  `json:"source"`
	Neighbors int     `json:"neighbors,omitempty"`
	// Coalesced marks a simulated answer that shared another request's
	// in-flight simulation instead of paying its own.
	Coalesced bool `json:"coalesced,omitempty"`
	// Degraded marks a brownout answer: a surrogate-only prediction
	// served because the simulation tier refused the request and the
	// caller opted in. It was not backed by a simulation and was not
	// inserted into the store.
	Degraded bool `json:"degraded,omitempty"`
}

// batchRequest is the body of POST /v1/batch.
type batchRequest struct {
	Configs   [][]int `json:"configs"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
}

// batchResponse carries the input-ordered results of a whole batch.
type batchResponse struct {
	Results []evaluateResponse `json:"results"`
}

// statsResponse is the body of GET /v1/stats: the evaluator's activity
// counters plus the live service gauges.
type statsResponse struct {
	NSim       int `json:"nsim"`
	NInterp    int `json:"ninterp"`
	NCoalesced int `json:"ncoalesced"`
	// NBatchPredict is the number of interpolations served through the
	// blocked shared-support batch path of POST /v1/batch (the batch
	// hit rate is nbatch_predict / ninterp).
	NBatchPredict       int     `json:"nbatch_predict"`
	NVarRejected        int     `json:"nvar_rejected"`
	NKrigFallback       int     `json:"nkrig_fallback"`
	PercentInterpolated float64 `json:"percent_interpolated"`
	MeanNeighbors       float64 `json:"mean_neighbors"`
	SimTimeMS           float64 `json:"sim_time_ms"`
	InterpTimeMS        float64 `json:"interp_time_ms"`
	EstimatedSpeedup    float64 `json:"estimated_speedup"`
	StoreLen            int     `json:"store_len"`
	InFlight            int     `json:"inflight"`
	ActiveSims          int     `json:"active_sims"`
	MaxSims             int     `json:"max_sims"`
	Draining            bool    `json:"draining"`
	// Remote simulator pool counters and per-worker gauges, read from
	// Options.Pool; absent without one. NRemoteSims counts
	// successful remote simulations including hedge duplicates, so
	// nremote_sims - nsim is the duplicate work bought as straggler
	// insurance.
	NRemoteSims int           `json:"nremote_sims,omitempty"`
	NHedged     int           `json:"nhedged,omitempty"`
	NRetried    int           `json:"nretried,omitempty"`
	NRequeued   int           `json:"nrequeued,omitempty"`
	SimWorkers  []workerGauge `json:"sim_workers,omitempty"`
	// Overload-resilience counters and gauges. NShed counts requests
	// rejected by the deadline-aware admission shedder (503 +
	// Retry-After), NQueueExpired requests whose deadline died while
	// parked for admission (a healthy shedder keeps this at zero),
	// NDegraded brownout answers served to opted-in callers, and
	// QueuedSims the live admission queue depth.
	NShed         int `json:"nshed"`
	NQueueExpired int `json:"nqueue_expired"`
	NDegraded     int `json:"ndegraded"`
	QueuedSims    int `json:"queued_sims"`
}

// workerGauge is one remote worker's live row in /v1/stats.
type workerGauge struct {
	URL         string  `json:"url"`
	Inflight    int     `json:"inflight"`
	Quarantined bool    `json:"quarantined"`
	Dispatched  uint64  `json:"dispatched"`
	Failures    uint64  `json:"failures"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
}

// requestContext maps the request-scoped deadline onto a context: the
// body's timeout_ms wins, then the server default; zero means the
// connection context alone governs the request.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.defaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// checkConfig validates one configuration against the evaluator's
// dimensionality and (when configured) the benchmark's search box.
func (s *Server) checkConfig(c space.Config) error {
	if len(c) != s.ev.Nv() {
		return fmt.Errorf("config has %d variables, want %d", len(c), s.ev.Nv())
	}
	if s.bounds != nil && !s.bounds.Contains(c) {
		return fmt.Errorf("config %v outside bounds [%v, %v]", c, s.bounds.Lo, s.bounds.Hi)
	}
	return nil
}

// errStatus maps an evaluation error onto its HTTP status.
func errStatus(err error) (int, string) {
	_, refused := evaluator.RetryAfter(err)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "evaluation deadline exceeded"
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for the log only.
		return 499, "request cancelled"
	case refused:
		// Capacity refusal, not failure: the admission shedder predicted
		// the request could not meet its deadline, or the remote pool is
		// down until its next readmission probe. Either way the client
		// should retry after the hinted wait, so these are 503 +
		// Retry-After, never 502.
		return http.StatusServiceUnavailable, err.Error()
	default:
		// The simulator (the upstream the service fronts) failed, or the
		// durable store went fail-stop.
		return http.StatusBadGateway, err.Error()
	}
}

// writeEvalError maps an evaluation failure onto the response,
// attaching the computed Retry-After on capacity refusals.
func writeEvalError(w http.ResponseWriter, err error) {
	status, msg := errStatus(err)
	if status == http.StatusServiceUnavailable {
		wait, _ := evaluator.RetryAfter(err)
		w.Header().Set("Retry-After", httpx.RetryAfter(wait))
	}
	httpx.WriteError(w, status, msg)
}

func toResponse(res evaluator.Result) evaluateResponse {
	return evaluateResponse{
		Lambda:    res.Lambda,
		Source:    res.Source.String(),
		Neighbors: res.Neighbors,
		Coalesced: res.Coalesced,
		Degraded:  res.Degraded,
	}
}

// handleEvaluate answers POST /v1/evaluate: one configuration through
// the engine — exact hit, kriged interpolation, or a coalesced,
// admission-bounded simulation.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req evaluateRequest
	if !httpx.Decode(w, r, &req) {
		return
	}
	cfg := space.Config(req.Config)
	if err := s.checkConfig(cfg); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	tenant, _ := r.Context().Value(tenantKey{}).(*tenantState)
	ro := evaluator.RequestOptions{
		AllowDegraded: req.AllowDegraded || (tenant != nil && tenant.AllowDegraded),
	}
	res, err := s.engine.EvaluateWith(ctx, cfg, ro)
	if err != nil {
		writeEvalError(w, err)
		return
	}
	if info := infoFrom(r.Context()); info != nil {
		if res.Source == evaluator.Simulated {
			info.coalesced, info.hasCoal = res.Coalesced, true
		}
		info.degraded = res.Degraded
	}
	httpx.WriteJSON(w, http.StatusOK, toResponse(res))
}

// handleBatch answers POST /v1/batch with Engine.EvaluateAll semantics:
// the whole batch runs on the server's worker pool against one store
// snapshot, its simulations admitted through the engine like
// any other request's, succeeds or fails as a unit, and returns results
// in input order.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !httpx.Decode(w, r, &req) {
		return
	}
	if len(req.Configs) == 0 {
		httpx.WriteError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Configs) > s.maxBatch {
		httpx.WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d configs over the %d limit", len(req.Configs), s.maxBatch))
		return
	}
	cfgs := make([]space.Config, len(req.Configs))
	for i, c := range req.Configs {
		cfgs[i] = space.Config(c)
		if err := s.checkConfig(cfgs[i]); err != nil {
			httpx.WriteError(w, http.StatusBadRequest, fmt.Sprintf("config %d: %v", i, err))
			return
		}
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	// The batch path never serves degraded values: batches feed commit
	// decisions (optimiser rounds), which must only see store-backed
	// truth. Against a pool that is down a batch therefore fails typed
	// rather than degrading.
	results, err := s.engine.EvaluateAll(ctx, cfgs, s.workers)
	if err != nil {
		writeEvalError(w, err)
		return
	}
	resp := batchResponse{Results: make([]evaluateResponse, len(results))}
	coalesced := false
	for i, res := range results {
		resp.Results[i] = toResponse(res)
		coalesced = coalesced || res.Coalesced
	}
	if info := infoFrom(r.Context()); info != nil {
		info.coalesced, info.hasCoal = coalesced, true
	}
	httpx.WriteJSON(w, http.StatusOK, resp)
}

// handleStats answers GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.ev.Stats()
	resp := statsResponse{
		NSim:                st.NSim,
		NInterp:             st.NInterp,
		NCoalesced:          st.NCoalesced,
		NBatchPredict:       st.NBatchPredict,
		NVarRejected:        st.NVarRejected,
		NKrigFallback:       st.NKrigFallback,
		PercentInterpolated: st.PercentInterpolated(),
		MeanNeighbors:       st.MeanNeighbors(),
		SimTimeMS:           float64(st.SimTime) / float64(time.Millisecond),
		InterpTimeMS:        float64(st.InterpTime) / float64(time.Millisecond),
		EstimatedSpeedup:    st.EstimatedSpeedup(),
		StoreLen:            s.ev.Store().Len(),
		InFlight:            s.ev.InFlight(),
		ActiveSims:          s.engine.ActiveSims(),
		MaxSims:             s.engine.MaxSims(),
		Draining:            s.drain.Draining(),
		NShed:               st.NShed,
		NQueueExpired:       st.NQueueExpired,
		NDegraded:           st.NDegraded,
		QueuedSims:          s.engine.QueuedSims(),
	}
	if s.pool != nil {
		ps := s.pool.Stats()
		resp.NRemoteSims, resp.NHedged = int(ps.NRemoteSims), int(ps.NHedged)
		resp.NRetried, resp.NRequeued = int(ps.NRetried), int(ps.NRequeued)
		resp.SimWorkers = make([]workerGauge, len(ps.Workers))
		for i, w := range ps.Workers {
			resp.SimWorkers[i] = workerGauge{
				URL:         w.URL,
				Inflight:    w.Inflight,
				Quarantined: w.Quarantined,
				Dispatched:  w.Dispatched,
				Failures:    w.Failures,
				P50MS:       float64(w.P50) / float64(time.Millisecond),
				P99MS:       float64(w.P99) / float64(time.Millisecond),
			}
		}
	}
	httpx.WriteJSON(w, http.StatusOK, resp)
}

// handleHealthz reports process liveness: 200 whenever the server can
// run a handler at all, draining included (the process is alive while it
// finishes its work).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports readiness to take new work: 503 once draining has
// begun or after the durable store's sticky failure — either way the
// load balancer should route elsewhere.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.drain.Draining() {
		httpx.WriteError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if err := s.ev.Err(); err != nil {
		httpx.WriteError(w, http.StatusServiceUnavailable, "state store failed: "+err.Error())
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

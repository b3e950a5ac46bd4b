package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/evaluator"
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

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// decode parses a JSON body with unknown fields rejected and a 1 MiB
// cap, answering 400 (or 413) itself when the body is malformed.
func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body over 1 MiB")
			return false
		}
		writeError(w, http.StatusBadRequest, "malformed JSON body: "+err.Error())
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "trailing data after JSON body")
		return false
	}
	return true
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

// retryAfterSeconds renders a wait as a Retry-After header value:
// whole seconds, rounded up, never below 1 (a 503 with Retry-After: 0
// invites an immediate retry storm).
func retryAfterSeconds(d time.Duration) string {
	secs := (int64(d) + int64(time.Second) - 1) / int64(time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// writeEvalError maps an evaluation failure onto the response,
// attaching the computed Retry-After on capacity refusals.
func writeEvalError(w http.ResponseWriter, err error) {
	status, msg := errStatus(err)
	if status == http.StatusServiceUnavailable {
		wait, _ := evaluator.RetryAfter(err)
		w.Header().Set("Retry-After", retryAfterSeconds(wait))
	}
	writeError(w, status, msg)
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
// the session engine — exact hit, kriged interpolation, or a coalesced,
// admission-bounded simulation.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req evaluateRequest
	if !decode(w, r, &req) {
		return
	}
	cfg := space.Config(req.Config)
	if err := s.checkConfig(cfg); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
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
	writeJSON(w, http.StatusOK, toResponse(res))
}

// handleBatch answers POST /v1/batch with EvaluateAllContext semantics:
// the whole batch runs on the server's worker pool against one store
// snapshot, succeeds or fails as a unit, and returns results in input
// order.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Configs) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Configs) > s.maxBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d configs over the %d limit", len(req.Configs), s.maxBatch))
		return
	}
	cfgs := make([]space.Config, len(req.Configs))
	for i, c := range req.Configs {
		cfgs[i] = space.Config(c)
		if err := s.checkConfig(cfgs[i]); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("config %d: %v", i, err))
			return
		}
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	// The batch path never serves degraded values: batches feed commit
	// decisions (optimiser rounds), which must only see store-backed
	// truth. Against a pool that is down a batch therefore fails typed
	// rather than degrading.
	results, err := s.ev.EvaluateAllContext(ctx, cfgs, s.workers)
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
	writeJSON(w, http.StatusOK, resp)
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
		PercentInterpolated: st.PercentInterpolated(),
		MeanNeighbors:       st.MeanNeighbors(),
		SimTimeMS:           float64(st.SimTime) / float64(time.Millisecond),
		InterpTimeMS:        float64(st.InterpTime) / float64(time.Millisecond),
		EstimatedSpeedup:    st.EstimatedSpeedup(),
		StoreLen:            s.ev.Store().Len(),
		InFlight:            s.ev.InFlight(),
		ActiveSims:          s.engine.ActiveSims(),
		MaxSims:             s.engine.MaxSims(),
		Draining:            s.draining.Load(),
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
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz reports process liveness: 200 whenever the server can
// run a handler at all, draining included (the process is alive while it
// finishes its work).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports readiness to take new work: 503 once draining has
// begun or after the durable store's sticky failure — either way the
// load balancer should route elsewhere.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if err := s.ev.Err(); err != nil {
		writeError(w, http.StatusServiceUnavailable, "state store failed: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/evaluator"
	"repro/internal/simpool"
	"repro/internal/space"
)

// overloadServer builds a Server over a caller-built evaluator (the
// generic newTestServer always builds its own with default options).
func overloadServer(t *testing.T, ev *evaluator.Evaluator, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	opts.Evaluator = ev
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { ev.Close() })
	return s, ts
}

// doHdr is doJSON plus the response headers.
func doHdr(t *testing.T, method, url, body string, hdr map[string]string) (int, http.Header, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatalf("response %q is not JSON: %v", raw, err)
		}
	}
	return resp.StatusCode, resp.Header, decoded
}

// postInBackground fires a request from a goroutine without touching
// testing.T; errors are swallowed — the test asserts on server state.
func postInBackground(url, body string, hdr map[string]string) {
	go func() {
		req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
}

// retryAfterValue parses the Retry-After header, failing the test if it
// is absent or not a positive integer.
func retryAfterValue(t *testing.T, h http.Header) int {
	t.Helper()
	ra := h.Get("Retry-After")
	if ra == "" {
		t.Fatal("Retry-After header missing")
	}
	n, err := strconv.Atoi(ra)
	if err != nil || n < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", ra)
	}
	return n
}

// TestOverloadShedsTo503WithRetryAfter drives the full shed path over
// HTTP: one admission slot held by a blocked simulation, a warm latency
// estimate, and a 1ms-deadline request — which must come back as an
// immediate 503 with a computed Retry-After and exact /v1/stats
// accounting.
func TestOverloadShedsTo503WithRetryAfter(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	sim := evaluator.ContextSimulatorFunc{
		NumVars: 1,
		Fn: func(ctx context.Context, cfg space.Config) (float64, error) {
			if calls.Add(1) == 1 {
				time.Sleep(20 * time.Millisecond) // seeds the EWMA
				return -1, nil
			}
			select {
			case <-release:
				return -2, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		},
	}
	defer close(release)
	ev, err := evaluator.New(sim, evaluator.Options{})
	if err != nil {
		t.Fatal(err)
	}
	engine := ev.Engine(1)
	_, ts := overloadServer(t, ev, Options{Engine: engine})

	if status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", `{"config":[1]}`, nil); status != http.StatusOK {
		t.Fatalf("warmup status = %d (%v)", status, body)
	}
	postInBackground(ts.URL+"/v1/evaluate", `{"config":[2]}`, nil)
	deadline := time.Now().Add(2 * time.Second)
	for engine.ActiveSims() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("occupying request never reached the simulator")
		}
		time.Sleep(time.Millisecond)
	}

	status, hdr, body := doHdr(t, http.MethodPost, ts.URL+"/v1/evaluate", `{"config":[3],"timeout_ms":1}`, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("doomed request status = %d, want 503 (body %v)", status, body)
	}
	retryAfterValue(t, hdr)
	if msg, _ := body["error"].(string); !strings.Contains(msg, "overloaded") {
		t.Errorf("error body %q does not mention overload", msg)
	}

	_, stats := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", "", nil)
	if got := stats["nshed"].(float64); got != 1 {
		t.Errorf("stats nshed = %v, want 1", got)
	}
	if got := stats["nqueue_expired"].(float64); got != 0 {
		t.Errorf("stats nqueue_expired = %v, want 0", got)
	}
	if _, ok := stats["queued_sims"]; !ok {
		t.Error("stats missing queued_sims")
	}
	if _, ok := stats["ndegraded"]; !ok {
		t.Error("stats missing ndegraded")
	}
}

// TestBatchRespectsMaxSims pins that /v1/batch simulations go through
// the engine's admission bound like /v1/evaluate ones: a batch of 8 on 4
// workers against a one-slot engine never runs two simulations at once.
func TestBatchRespectsMaxSims(t *testing.T) {
	var cur, peak atomic.Int64
	sim := evaluator.SimulatorFunc{
		NumVars: 1,
		Fn: func(cfg space.Config) (float64, error) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			cur.Add(-1)
			return -float64(cfg[0]), nil
		},
	}
	ev, err := evaluator.New(sim, evaluator.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := overloadServer(t, ev, Options{Engine: ev.Engine(1), Workers: 4})

	status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/batch",
		`{"configs":[[1],[2],[3],[4],[5],[6],[7],[8]]}`, nil)
	if status != http.StatusOK {
		t.Fatalf("batch status = %d (%v)", status, body)
	}
	if results, _ := body["results"].([]any); len(results) != 8 {
		t.Fatalf("batch returned %d results, want 8", len(results))
	}
	if n := ev.Stats().NSim; n != 8 {
		t.Errorf("NSim = %d, want 8", n)
	}
	if p := peak.Load(); p != 1 {
		t.Errorf("peak concurrent simulations = %d, want 1 (EVALD_MAX_SIMS bounds /v1/batch too)", p)
	}
}

// TestDegradedServingPolicy covers the brownout opt-ins over HTTP: a
// tenant with the degraded policy gets a degraded:true answer when the
// simulation tier refuses work, a strict tenant gets the 503 (with the
// rejection's Retry-After hint), and the strict tenant can still opt a
// single request in with allow_degraded.
func TestDegradedServingPolicy(t *testing.T) {
	sim := evaluator.SimulatorFunc{
		NumVars: 2,
		Fn: func(space.Config) (float64, error) {
			return 0, &simpool.UnavailableError{RetryAfter: 3 * time.Second}
		},
	}
	ev, err := evaluator.New(sim, evaluator.Options{D: 2, NnMin: 3, MaxSupport: 8})
	if err != nil {
		t.Fatal(err)
	}
	ev.Store().Add(space.Config{4, 4}, -1)
	ev.Store().Add(space.Config{4, 5}, -2)
	_, ts := overloadServer(t, ev, Options{
		Tenants: []Tenant{
			{Name: "alice", Key: "ka", AllowDegraded: true},
			{Name: "bob", Key: "kb"},
		},
	})

	alice := map[string]string{"X-API-Key": "ka"}
	bob := map[string]string{"X-API-Key": "kb"}
	q := `{"config":[5,4]}`

	status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", q, alice)
	if status != http.StatusOK {
		t.Fatalf("opted tenant status = %d (%v), want 200", status, body)
	}
	if body["degraded"] != true {
		t.Errorf("opted tenant response not flagged degraded: %v", body)
	}

	status, hdr, body := doHdr(t, http.MethodPost, ts.URL+"/v1/evaluate", q, bob)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("strict tenant status = %d (%v), want 503", status, body)
	}
	if ra := retryAfterValue(t, hdr); ra != 3 {
		t.Errorf("strict tenant Retry-After = %d, want 3 (the rejection hint)", ra)
	}
	if body["degraded"] == true {
		t.Error("strict tenant response flagged degraded")
	}

	status, body = doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate",
		`{"config":[5,4],"allow_degraded":true}`, bob)
	if status != http.StatusOK || body["degraded"] != true {
		t.Fatalf("per-request opt-in: status %d body %v, want 200 degraded", status, body)
	}

	// The store held only the two warm points throughout.
	if n := ev.Store().Len(); n != 2 {
		t.Errorf("store grew to %d entries under degraded serving", n)
	}
	_, stats := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", "", alice)
	if got := stats["ndegraded"].(float64); got != 2 {
		t.Errorf("stats ndegraded = %v, want 2 (alice + bob's opt-in)", got)
	}
}

// TestPoolDownStatsAndRecoverySurface walks a fleet outage over HTTP:
// the first request after the kill gets a 502 naming the typed cause,
// the next a fast 503 with Retry-After while /v1/stats shows every
// worker quarantined, and once the fleet revives the same pool answers
// 200 again through a readmission probe.
func TestPoolDownStatsAndRecoverySurface(t *testing.T) {
	var down atomic.Bool
	var specs []simpool.WorkerSpec
	for i := 0; i < 2; i++ {
		inner := simpool.NewWorker(simpool.WorkerOptions{Sim: (&gatedSim{}).sim()}).Handler()
		ws := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if down.Load() {
				http.Error(w, "worker down", http.StatusServiceUnavailable)
				return
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(ws.Close)
		specs = append(specs, simpool.WorkerSpec{URL: ws.URL})
	}
	pool, err := simpool.NewPool(simpool.Options{
		Workers:   specs,
		Nv:        2,
		RetryBase: time.Millisecond,
		RetryMax:  5 * time.Millisecond,
		ProbeBase: 5 * time.Millisecond,
		ProbeMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	_, ts := newTestServer(t, Options{Pool: pool}, pool)

	if status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", `{"config":[3,4]}`, nil); status != http.StatusOK {
		t.Fatalf("healthy fleet status = %d (%v), want 200", status, body)
	}

	down.Store(true)
	status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", `{"config":[5,6]}`, nil)
	if status != http.StatusBadGateway {
		t.Fatalf("first outage status = %d (%v), want 502", status, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "no live workers") {
		t.Fatalf("first outage error %q does not name the typed cause", msg)
	}
	status, hdr, body := doHdr(t, http.MethodPost, ts.URL+"/v1/evaluate", `{"config":[7,8]}`, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("pool-down status = %d (%v), want 503", status, body)
	}
	retryAfterValue(t, hdr)

	_, stats := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", "", nil)
	rows, _ := stats["sim_workers"].([]any)
	if len(rows) != len(specs) {
		t.Fatalf("sim_workers = %v, want %d rows", stats["sim_workers"], len(specs))
	}
	for _, r := range rows {
		if row, _ := r.(map[string]any); row["quarantined"] != true {
			t.Errorf("worker row %v not quarantined during the outage", row)
		}
	}

	down.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	recovered := false
	for time.Now().Before(deadline) && !recovered {
		status, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", `{"config":[9,9]}`, nil)
		recovered = status == http.StatusOK
		if !recovered {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !recovered {
		t.Fatal("service never recovered to 200 after the fleet revived")
	}
}

// TestErrStatusTable pins the evaluation-error mapping, each error
// wrapped the way the evaluator wraps a simulator failure: capacity
// refusals are 503 with Retry-After, upstream failures 502, deadlines
// 504.
func TestErrStatusTable(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("evaluator: simulation of [1 2] failed: %w", err) }
	cases := []struct {
		name       string
		err        error
		status     int
		retryAfter string
	}{
		{"overload", wrap(&evaluator.OverloadError{EstimatedWait: 1500 * time.Millisecond}), http.StatusServiceUnavailable, "2"},
		{"pool down", wrap(&simpool.UnavailableError{RetryAfter: 40 * time.Millisecond}), http.StatusServiceUnavailable, "1"},
		{"no workers", wrap(simpool.ErrNoWorkers), http.StatusBadGateway, ""},
		{"simulation", wrap(simpool.ErrSimulation), http.StatusBadGateway, ""},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			writeEvalError(rec, c.err)
			if rec.Code != c.status {
				t.Errorf("status = %d, want %d", rec.Code, c.status)
			}
			if got := rec.Header().Get("Retry-After"); got != c.retryAfter {
				t.Errorf("Retry-After = %q, want %q", got, c.retryAfter)
			}
		})
	}
}

// TestDrainRetryAfterIsGraceRemaining checks the drain gate's header is
// the configured grace remaining, not a hardcoded constant — and floors
// at 1 when no grace is known.
func TestDrainRetryAfterIsGraceRemaining(t *testing.T) {
	s, ts := newTestServer(t, Options{}, nil)
	s.drain.Start(10 * time.Second)
	status, hdr, _ := doHdr(t, http.MethodGet, ts.URL+"/v1/stats", "", nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503", status)
	}
	if ra := retryAfterValue(t, hdr); ra < 5 || ra > 10 {
		t.Errorf("Retry-After = %d, want within the 10s grace", ra)
	}

	s2, ts2 := newTestServer(t, Options{}, nil)
	s2.drain.Start(0) // no grace configured
	_, hdr2, _ := doHdr(t, http.MethodGet, ts2.URL+"/v1/stats", "", nil)
	if ra := retryAfterValue(t, hdr2); ra != 1 {
		t.Errorf("no-grace Retry-After = %d, want floor 1", ra)
	}
}

// TestQuotaRetryAfterComputed checks the 429 carries a Retry-After
// estimate (floored at 1) instead of a hardcoded constant.
func TestQuotaRetryAfterComputed(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	sim := evaluator.ContextSimulatorFunc{
		NumVars: 1,
		Fn: func(ctx context.Context, cfg space.Config) (float64, error) {
			select {
			case entered <- struct{}{}:
			default:
			}
			select {
			case <-release:
				return -1, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		},
	}
	defer close(release)
	ev, err := evaluator.New(sim, evaluator.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := overloadServer(t, ev, Options{
		Tenants: []Tenant{{Name: "alice", Key: "ka", Quota: 1}},
	})
	alice := map[string]string{"X-API-Key": "ka"}
	postInBackground(ts.URL+"/v1/evaluate", `{"config":[1]}`, alice)
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("occupying request never reached the simulator")
	}

	status, hdr, body := doHdr(t, http.MethodPost, ts.URL+"/v1/evaluate", `{"config":[2]}`, alice)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d (%v), want 429", status, body)
	}
	retryAfterValue(t, hdr)
}

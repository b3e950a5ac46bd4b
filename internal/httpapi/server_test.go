package httpapi

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/evaluator"
	"repro/internal/space"
)

// gatedSim is a 2-variable test simulator whose runs can be held open:
// when gate is non-nil a simulation signals entered and then blocks
// until the gate closes (or ctx dies). λ is the negative sum of the
// configuration, so values are easy to predict in assertions.
type gatedSim struct {
	entered chan struct{}
	gate    chan struct{}
	delay   time.Duration
}

func (g *gatedSim) sim() evaluator.ContextSimulatorFunc {
	return evaluator.ContextSimulatorFunc{
		NumVars: 2,
		Fn: func(ctx context.Context, cfg space.Config) (float64, error) {
			if g.entered != nil {
				select {
				case g.entered <- struct{}{}:
				case <-ctx.Done():
					return 0, ctx.Err()
				}
			}
			if g.gate != nil {
				select {
				case <-g.gate:
				case <-ctx.Done():
					return 0, ctx.Err()
				}
			}
			if g.delay > 0 {
				select {
				case <-time.After(g.delay):
				case <-ctx.Done():
					return 0, ctx.Err()
				}
			}
			sum := 0.0
			for _, v := range cfg {
				sum += float64(v)
			}
			return -sum, nil
		},
	}
}

func newTestServer(t *testing.T, opts Options, sim evaluator.Simulator) (*Server, *httptest.Server) {
	t.Helper()
	if sim == nil {
		sim = (&gatedSim{}).sim()
	}
	ev, err := evaluator.New(sim, evaluator.Options{})
	if err != nil {
		t.Fatal(err)
	}
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

func doJSON(t *testing.T, method, url, body string, hdr map[string]string) (int, map[string]any) {
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
	return resp.StatusCode, decoded
}

// TestHandlerTable drives the request-validation and auth matrix of the
// API: every row is one request and the status (+ optional body
// fragment) it must produce.
func TestHandlerTable(t *testing.T) {
	bounds := space.UniformBounds(2, 2, 16)
	_, ts := newTestServer(t, Options{
		Tenants: []Tenant{{Name: "alice", Key: "sesame", Quota: 4}},
		Bounds:  &bounds,
	}, nil)

	auth := map[string]string{"Authorization": "Bearer sesame"}
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		hdr        map[string]string
		wantStatus int
		wantErr    string // substring of the "error" field; "" = none
	}{
		{"no key", http.MethodPost, "/v1/evaluate", `{"config":[8,8]}`, nil,
			http.StatusUnauthorized, "missing API key"},
		{"wrong key", http.MethodPost, "/v1/evaluate", `{"config":[8,8]}`,
			map[string]string{"X-API-Key": "guess"}, http.StatusUnauthorized, "invalid API key"},
		{"wrong scheme", http.MethodPost, "/v1/evaluate", `{"config":[8,8]}`,
			map[string]string{"Authorization": "Basic sesame"}, http.StatusUnauthorized, "missing API key"},
		{"stats needs key too", http.MethodGet, "/v1/stats", "", nil,
			http.StatusUnauthorized, "missing API key"},
		{"malformed JSON", http.MethodPost, "/v1/evaluate", `{"config":[8,8`, auth,
			http.StatusBadRequest, "malformed JSON"},
		{"unknown field", http.MethodPost, "/v1/evaluate", `{"cfg":[8,8]}`, auth,
			http.StatusBadRequest, "malformed JSON"},
		{"trailing garbage", http.MethodPost, "/v1/evaluate", `{"config":[8,8]} extra`, auth,
			http.StatusBadRequest, ""},
		{"wrong dimension", http.MethodPost, "/v1/evaluate", `{"config":[8,8,8]}`, auth,
			http.StatusBadRequest, "want 2"},
		{"out of bounds", http.MethodPost, "/v1/evaluate", `{"config":[1,99]}`, auth,
			http.StatusBadRequest, "outside bounds"},
		{"method not allowed", http.MethodGet, "/v1/evaluate", "", auth,
			http.StatusMethodNotAllowed, "method not allowed"},
		{"batch empty", http.MethodPost, "/v1/batch", `{"configs":[]}`, auth,
			http.StatusBadRequest, "empty batch"},
		{"batch bad member", http.MethodPost, "/v1/batch", `{"configs":[[8,8],[1,1,1]]}`, auth,
			http.StatusBadRequest, "config 1"},
		{"evaluate ok", http.MethodPost, "/v1/evaluate", `{"config":[8,8]}`, auth,
			http.StatusOK, ""},
		{"batch ok", http.MethodPost, "/v1/batch", `{"configs":[[4,4],[8,8]]}`, auth,
			http.StatusOK, ""},
		{"healthz no key", http.MethodGet, "/healthz", "", nil, http.StatusOK, ""},
		{"readyz no key", http.MethodGet, "/readyz", "", nil, http.StatusOK, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := doJSON(t, tc.method, ts.URL+tc.path, tc.body, tc.hdr)
			if status != tc.wantStatus {
				t.Fatalf("status = %d (%v), want %d", status, body, tc.wantStatus)
			}
			if tc.wantErr != "" {
				msg, _ := body["error"].(string)
				if !strings.Contains(msg, tc.wantErr) {
					t.Errorf("error %q does not mention %q", msg, tc.wantErr)
				}
			}
		})
	}
}

// TestEvaluateValues pins the happy-path JSON: a simulated answer, the
// exact-hit revisit, and input-ordered batch results.
func TestEvaluateValues(t *testing.T) {
	_, ts := newTestServer(t, Options{}, nil)
	status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", `{"config":[3,4]}`, nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d (%v)", status, body)
	}
	if body["lambda"] != -7.0 || body["source"] != "simulated" {
		t.Errorf("body = %v, want lambda -7 simulated", body)
	}
	// Revisit: exact store hit, still reported as simulated truth.
	_, body = doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", `{"config":[3,4]}`, nil)
	if body["lambda"] != -7.0 {
		t.Errorf("revisit body = %v", body)
	}
	status, batch := doJSON(t, http.MethodPost, ts.URL+"/v1/batch", `{"configs":[[2,2],[5,6],[3,4]]}`, nil)
	if status != http.StatusOK {
		t.Fatalf("batch status = %d (%v)", status, batch)
	}
	results, _ := batch["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("batch results = %v", batch)
	}
	wants := []float64{-4, -11, -7}
	for i, want := range wants {
		r, _ := results[i].(map[string]any)
		if r["lambda"] != want {
			t.Errorf("batch result %d = %v, want lambda %v", i, r, want)
		}
	}
}

// TestDeadlineMapsTo504 maps an expired request-scoped deadline onto
// 504: the simulation outlives timeout_ms, the query context expires,
// and the client sees Gateway Timeout.
func TestDeadlineMapsTo504(t *testing.T) {
	_, ts := newTestServer(t, Options{}, (&gatedSim{delay: 500 * time.Millisecond}).sim())
	start := time.Now()
	status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", `{"config":[4,4],"timeout_ms":30}`, nil)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%v), want 504", status, body)
	}
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Errorf("timeout took %v, want well under the 500ms simulation", elapsed)
	}
	// The server default timeout applies when the body carries none.
	_, ts2 := newTestServer(t, Options{DefaultTimeout: 30 * time.Millisecond},
		(&gatedSim{delay: 500 * time.Millisecond}).sim())
	status, _ = doJSON(t, http.MethodPost, ts2.URL+"/v1/batch", `{"configs":[[4,4]]}`, nil)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("batch default-timeout status = %d, want 504", status)
	}
}

// TestQuotaExhaustedMapsTo429 holds a tenant's single quota slot open
// with a gated simulation and demands 429 for the overflow request —
// while a second tenant still gets served.
func TestQuotaExhaustedMapsTo429(t *testing.T) {
	g := &gatedSim{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	_, ts := newTestServer(t, Options{
		Tenants: []Tenant{
			{Name: "small", Key: "k1", Quota: 1},
			{Name: "big", Key: "k2"},
		},
	}, g.sim())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate",
			`{"config":[9,9]}`, map[string]string{"X-API-Key": "k1"})
		if status != http.StatusOK {
			t.Errorf("held request finished %d (%v), want 200", status, body)
		}
	}()
	<-g.entered // the quota slot is now held inside the simulator

	status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate",
		`{"config":[8,8]}`, map[string]string{"X-API-Key": "k1"})
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d (%v), want 429", status, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "quota") {
		t.Errorf("429 body %v does not mention the quota", body)
	}

	// An unlimited tenant is unaffected by the noisy neighbour. Use a
	// config colliding with the held flight so it coalesces rather than
	// queueing behind the gate... a distinct config would block on the
	// gated simulator, so probe stats instead (no simulation involved).
	status, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/stats", "", map[string]string{"X-API-Key": "k2"})
	if status != http.StatusOK {
		t.Fatalf("second tenant stats status = %d, want 200", status)
	}

	close(g.gate)
	wg.Wait()
}

// TestStatsShape runs traffic with two colliding concurrent misses and
// checks the stats document: counter keys present, one simulation, one
// coalesced follower, and the admission gauges of the engine.
func TestStatsShape(t *testing.T) {
	g := &gatedSim{entered: make(chan struct{}, 2), gate: make(chan struct{})}
	ev, err := evaluator.New(g.sim(), evaluator.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	s := New(Options{
		Evaluator: ev,
		Engine:    ev.Engine(7),
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	coalesced := make([]bool, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", `{"config":[6,6]}`, nil)
			if status != http.StatusOK {
				t.Errorf("request %d: status %d (%v)", i, status, body)
				return
			}
			coalesced[i], _ = body["coalesced"].(bool)
		}(i)
	}
	<-g.entered // owner is inside the simulator; follower is coalescing
	// Give the follower a moment to join the flight, then release.
	time.Sleep(20 * time.Millisecond)
	close(g.gate)
	wg.Wait()

	if coalesced[0] == coalesced[1] {
		t.Errorf("coalesced flags = %v, want exactly one follower", coalesced)
	}

	status, body := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", "", nil)
	if status != http.StatusOK {
		t.Fatalf("stats status = %d", status)
	}
	for _, key := range []string{
		"nsim", "ninterp", "ncoalesced", "nbatch_predict", "nvar_rejected", "nkrig_fallback", "percent_interpolated",
		"mean_neighbors", "sim_time_ms", "interp_time_ms", "estimated_speedup",
		"store_len", "inflight", "active_sims", "max_sims", "draining",
	} {
		if _, ok := body[key]; !ok {
			t.Errorf("stats response missing %q: %v", key, body)
		}
	}
	if body["nsim"] != 1.0 || body["ncoalesced"] != 1.0 || body["store_len"] != 1.0 {
		t.Errorf("stats counters = %v, want nsim 1, ncoalesced 1, store_len 1", body)
	}
	if body["max_sims"] != 7.0 || body["active_sims"] != 0.0 || body["inflight"] != 0.0 {
		t.Errorf("stats gauges = %v, want max_sims 7, active_sims 0, inflight 0", body)
	}
	if body["draining"] != false {
		t.Errorf("draining = %v, want false", body["draining"])
	}
}

// TestPanicRecovery turns a handler panic into a 500 JSON error.
func TestPanicRecovery(t *testing.T) {
	panicSim := evaluator.SimulatorFunc{
		NumVars: 2,
		Fn:      func(cfg space.Config) (float64, error) { panic("simulator exploded") },
	}
	_, ts := newTestServer(t, Options{}, panicSim)
	status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", `{"config":[2,2]}`, nil)
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d (%v), want 500", status, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "internal error") {
		t.Errorf("500 body = %v", body)
	}
	// The server survives the panic.
	status, _ = doJSON(t, http.MethodGet, ts.URL+"/healthz", "", nil)
	if status != http.StatusOK {
		t.Errorf("healthz after panic = %d", status)
	}
}

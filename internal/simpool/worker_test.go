package simpool

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/space"
)

// stubSim is a deterministic 3-variable simulator: λ = -(w0 + 10·w1 +
// 100·w2), distinct per config and trivially recomputable in asserts.
type stubSim struct {
	// fail, when non-nil, makes matching configs fail.
	fail func(cfg space.Config) error
	// entered, when non-nil, receives one token per simulation start.
	entered chan struct{}
	// release, when non-nil, blocks each simulation until a token (or
	// ctx cancellation).
	release chan struct{}
	calls   atomic.Int64
}

func stubLambda(cfg space.Config) float64 {
	return -(float64(cfg[0]) + 10*float64(cfg[1]) + 100*float64(cfg[2]))
}

func (s *stubSim) Nv() int { return 3 }

func (s *stubSim) Evaluate(cfg space.Config) (float64, error) {
	return s.EvaluateContext(context.Background(), cfg)
}

func (s *stubSim) EvaluateContext(ctx context.Context, cfg space.Config) (float64, error) {
	s.calls.Add(1)
	if s.entered != nil {
		s.entered <- struct{}{}
	}
	if s.release != nil {
		select {
		case <-s.release:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	if s.fail != nil {
		if err := s.fail(cfg); err != nil {
			return 0, err
		}
	}
	return stubLambda(cfg), nil
}

func postSimulate(t *testing.T, url, key, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/simulate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := make([]byte, 1<<16)
	n, _ := resp.Body.Read(raw)
	return resp, raw[:n]
}

func TestWorkerSimulate(t *testing.T) {
	w := NewWorker(WorkerOptions{Sim: &stubSim{}, Key: "k3y"})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	resp, raw := postSimulate(t, srv.URL, "k3y", `{"config":[2,3,4]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (%s)", resp.StatusCode, raw)
	}
	var sr simulateResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if want := stubLambda(space.Config{2, 3, 4}); sr.Lambda != want {
		t.Fatalf("lambda = %v, want %v", sr.Lambda, want)
	}
}

func TestWorkerStatusTable(t *testing.T) {
	simErr := errors.New("simulator blew up")
	sim := &stubSim{fail: func(cfg space.Config) error {
		if cfg[0] == 9 {
			return simErr
		}
		return nil
	}}
	w := NewWorker(WorkerOptions{Sim: sim, Key: "k3y"})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	cases := []struct {
		name   string
		method string
		key    string
		body   string
		want   int
	}{
		{"ok", http.MethodPost, "k3y", `{"config":[2,3,4]}`, http.StatusOK},
		{"missing key", http.MethodPost, "", `{"config":[2,3,4]}`, http.StatusUnauthorized},
		{"wrong key", http.MethodPost, "nope", `{"config":[2,3,4]}`, http.StatusUnauthorized},
		{"wrong method", http.MethodGet, "k3y", "", http.StatusMethodNotAllowed},
		{"malformed json", http.MethodPost, "k3y", `{"config":`, http.StatusBadRequest},
		{"unknown field", http.MethodPost, "k3y", `{"config":[2,3,4],"x":1}`, http.StatusBadRequest},
		{"trailing data", http.MethodPost, "k3y", `{"config":[2,3,4]}{}`, http.StatusBadRequest},
		{"wrong dims", http.MethodPost, "k3y", `{"config":[2,3]}`, http.StatusBadRequest},
		{"simulator error", http.MethodPost, "k3y", `{"config":[9,3,4]}`, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, srv.URL+"/v1/simulate", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			if c.key != "" {
				req.Header.Set("X-API-Key", c.key)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, c.want)
			}
		})
	}
}

func TestWorkerHealthz(t *testing.T) {
	sim := &stubSim{}
	w := NewWorker(WorkerOptions{Sim: sim, Key: "k3y", Capacity: 2})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	// Healthz needs no credentials: the pool probes it before trusting a
	// quarantined worker again.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" || hz.Nv != 3 || hz.Capacity != 2 {
		t.Fatalf("healthz = %d %+v, want 200 ok nv=3 capacity=2", resp.StatusCode, hz)
	}

	w.drain.Start(10 * time.Second)
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	r2, _ := postSimulate(t, srv.URL, "k3y", `{"config":[2,3,4]}`)
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining simulate = %d, want 503", r2.StatusCode)
	}
	// The Retry-After is the drain grace remaining, not a constant.
	if ra, err := strconv.Atoi(r2.Header.Get("Retry-After")); err != nil || ra < 5 || ra > 10 {
		t.Errorf("draining Retry-After = %q, want within the 10s grace", r2.Header.Get("Retry-After"))
	}
}

// TestWorkerCapacitySlots proves the concurrency bound: with capacity 1
// and one simulation held open, a second request queues (does not enter
// the simulator) until the first releases.
func TestWorkerCapacitySlots(t *testing.T) {
	sim := &stubSim{entered: make(chan struct{}, 8), release: make(chan struct{})}
	w := NewWorker(WorkerOptions{Sim: sim, Capacity: 1})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, _ := postSimulate(t, srv.URL, "", `{"config":[2,3,4]}`)
			results <- resp.StatusCode
		}()
	}
	<-sim.entered // first simulation running
	select {
	case <-sim.entered:
		t.Fatal("second simulation entered past a capacity-1 slot")
	case <-time.After(50 * time.Millisecond):
	}
	close(sim.release) // let both through
	<-sim.entered
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("request %d status = %d, want 200", i, code)
		}
	}
}

func TestWorkerServeListenerDrains(t *testing.T) {
	sim := &stubSim{entered: make(chan struct{}, 1), release: make(chan struct{})}
	w := NewWorker(WorkerOptions{Sim: sim})
	srv := httptest.NewUnstartedServer(nil)
	ln := srv.Listener
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- w.ServeListener(ctx, ln, 5*time.Second) }()

	url := "http://" + ln.Addr().String()
	done := make(chan int, 1)
	go func() {
		resp, _ := postSimulate(t, url, "", `{"config":[2,3,4]}`)
		done <- resp.StatusCode
	}()
	<-sim.entered
	cancel() // begin drain with the simulation in flight
	time.Sleep(20 * time.Millisecond)
	close(sim.release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight request during drain = %d, want 200", code)
	}
	if err := <-served; err != nil {
		t.Fatalf("ServeListener = %v, want nil on clean drain", err)
	}
}

func TestWorkerPanicRecovery(t *testing.T) {
	sim := &stubSim{fail: func(cfg space.Config) error {
		if cfg[0] == 9 {
			panic("boom")
		}
		return nil
	}}
	w := NewWorker(WorkerOptions{Sim: sim})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	resp, raw := postSimulate(t, srv.URL, "", `{"config":[9,3,4]}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d (%s), want 500", resp.StatusCode, raw)
	}
	// The worker survives the panic.
	resp, _ = postSimulate(t, srv.URL, "", `{"config":[2,3,5]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic status = %d, want 200", resp.StatusCode)
	}
}

package httpapi

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/evaluator"
	"repro/internal/space"
)

// TestGracefulDrain exercises the full SIGTERM path on a durable store:
// a batch is in flight when the shutdown context fires; the in-flight
// request must complete with its simulated answers, new requests must be
// refused, ServeListener must return only after the write-ahead log is
// cleanly closed (Err() == nil), and a fresh evaluator over the same
// state directory must recover every acknowledged result.
func TestGracefulDrain(t *testing.T) {
	dir := t.TempDir()
	g := &gatedSim{entered: make(chan struct{}, 4), gate: make(chan struct{})}
	ev, err := evaluator.New(g.sim(), evaluator.Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{
		Evaluator: ev,
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.ServeListener(ctx, ln, 5*time.Second) }()

	// A batch goes in flight and parks inside the simulator.
	batchDone := make(chan map[string]any, 1)
	go func() {
		status, body := doJSON(t, http.MethodPost, url+"/v1/batch", `{"configs":[[3,3],[5,5]]}`, nil)
		if status != http.StatusOK {
			t.Errorf("in-flight batch finished %d (%v), want 200", status, body)
		}
		batchDone <- body
	}()
	<-g.entered // at least one simulation is running mid-batch

	// "SIGTERM": the root context dies, the drain begins.
	cancel()
	waitDraining(t, s)

	// New work is refused: either the app-level drain gate answers 503,
	// or http.Server.Shutdown already closed the listener and the
	// connection is refused outright. Both count as "not accepted".
	if status, err := tryRequest(url + "/v1/evaluate"); err == nil && status != http.StatusServiceUnavailable {
		t.Errorf("new request during drain got %d, want 503 or connection refused", status)
	} else if err != nil && !errors.Is(err, syscall.ECONNREFUSED) && !strings.Contains(err.Error(), "connection refused") {
		t.Errorf("new request during drain failed with %v, want connection refused", err)
	}

	// The in-flight batch runs to completion once the simulator is
	// released; its futures resolve and the client gets its answers.
	close(g.gate)
	body := <-batchDone
	results, _ := body["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("drained batch results = %v", body)
	}

	// ServeListener returns only after the store is closed; a clean
	// drain reports no error and no sticky durability failure.
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeListener returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeListener did not return after the drain")
	}
	if err := ev.Err(); err != nil {
		t.Fatalf("evaluator Err() = %v after a clean drain, want nil", err)
	}

	// The WAL was synced before close: a recovery sees both results.
	ev2, err := evaluator.New((&gatedSim{}).sim(), evaluator.Options{StateDir: dir})
	if err != nil {
		t.Fatalf("recovering the drained state: %v", err)
	}
	defer ev2.Close()
	if n := ev2.Store().Len(); n != 2 {
		t.Errorf("recovered store has %d entries, want the 2 acknowledged mid-drain results", n)
	}
	for _, cfg := range []space.Config{{3, 3}, {5, 5}} {
		if _, ok := ev2.Store().Lookup(cfg); !ok {
			t.Errorf("recovered store is missing %v", cfg)
		}
	}
}

// TestDrainGateRefusesDeterministically pins the app-level half of the
// drain independent of listener teardown timing: once the drain starts,
// API routes answer 503 with Retry-After while the health probe
// keeps reporting liveness and readiness flips.
func TestDrainGateRefusesDeterministically(t *testing.T) {
	s, ts := newTestServer(t, Options{}, nil)
	status, _ := doJSON(t, http.MethodGet, ts.URL+"/readyz", "", nil)
	if status != http.StatusOK {
		t.Fatalf("readyz before drain = %d", status)
	}
	s.drain.Start(0)
	status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/evaluate", `{"config":[2,2]}`, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("evaluate during drain = %d (%v), want 503", status, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "draining") {
		t.Errorf("drain body = %v", body)
	}
	status, _ = doJSON(t, http.MethodGet, ts.URL+"/readyz", "", nil)
	if status != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", status)
	}
	status, _ = doJSON(t, http.MethodGet, ts.URL+"/healthz", "", nil)
	if status != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200 (process is alive)", status)
	}
}

func waitDraining(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !s.drain.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
}

// tryRequest issues one POST with a short overall timeout and reports
// the status or the transport error.
func tryRequest(url string) (int, error) {
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Post(url, "application/json", strings.NewReader(`{"config":[9,9]}`))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

package httpapi

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/simpool"
)

// API-level coverage of the remote simulator pool: a dead pool must
// surface as a typed 502 and then a fast 503 — never a hang — and a
// live pool's scheduler counters and per-worker gauges must show up on
// /v1/stats.

// newPoolServer stands up a simd-style worker over the usual gatedSim,
// a pool in front of it, and the API server wired for pool gauges.
func newPoolServer(t *testing.T, poolOpts simpool.Options) (*simpool.Pool, *httptest.Server) {
	t.Helper()
	worker := simpool.NewWorker(simpool.WorkerOptions{Sim: (&gatedSim{}).sim()})
	ws := httptest.NewServer(worker.Handler())
	t.Cleanup(ws.Close)
	poolOpts.Workers = []simpool.WorkerSpec{{URL: ws.URL}}
	poolOpts.Nv = 2
	pool, err := simpool.NewPool(poolOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	_, ts := newTestServer(t, Options{Pool: pool}, pool)
	return pool, ts
}

func TestDeadPoolFailsFast(t *testing.T) {
	// A worker URL that answered once and is now gone: connection
	// refused on every attempt.
	gone := httptest.NewServer(nil)
	url := gone.URL
	gone.Close()
	pool, err := simpool.NewPool(simpool.Options{
		Workers:   []simpool.WorkerSpec{{URL: url}},
		Nv:        2,
		RetryBase: time.Millisecond,
		RetryMax:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	_, ts := newTestServer(t, Options{Pool: pool}, pool)

	start := time.Now()
	status, body := doJSON(t, "POST", ts.URL+"/v1/evaluate", `{"config":[3,4]}`, nil)
	if status != 502 {
		t.Fatalf("dead pool status = %d (%v), want 502", status, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "no live workers") {
		t.Fatalf("dead pool error %q does not name the typed cause", msg)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dead pool took %v to fail; must be a fast failure, not a hang", elapsed)
	}

	// The exhausted ladder latched the pool down: the next request is a
	// fast 503 with a Retry-After, not another walk of the ladder.
	status, hdr, body := doHdr(t, "POST", ts.URL+"/v1/evaluate", `{"config":[5,6]}`, nil)
	if status != 503 {
		t.Fatalf("latched pool status = %d (%v), want 503", status, body)
	}
	retryAfterValue(t, hdr)
}

func TestStatsReportsPool(t *testing.T) {
	_, ts := newPoolServer(t, simpool.Options{})
	for _, body := range []string{`{"config":[3,4]}`, `{"config":[5,6]}`} {
		if status, resp := doJSON(t, "POST", ts.URL+"/v1/evaluate", body, nil); status != 200 {
			t.Fatalf("evaluate via pool = %d (%v), want 200", status, resp)
		}
	}
	status, st := doJSON(t, "GET", ts.URL+"/v1/stats", "", nil)
	if status != 200 {
		t.Fatalf("stats = %d, want 200", status)
	}
	if n, _ := st["nremote_sims"].(float64); n < 2 {
		t.Fatalf("nremote_sims = %v, want >= 2", st["nremote_sims"])
	}
	workers, _ := st["sim_workers"].([]any)
	if len(workers) != 1 {
		t.Fatalf("sim_workers = %v, want one gauge row", st["sim_workers"])
	}
	row, _ := workers[0].(map[string]any)
	if row["url"] == "" || row["quarantined"] != false {
		t.Fatalf("gauge row %v: want a url and quarantined=false", row)
	}
	if d, _ := row["dispatched"].(float64); d < 2 {
		t.Fatalf("gauge row %v: dispatched < 2", row)
	}
}

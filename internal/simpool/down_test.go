package simpool

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/space"
)

func latched(p *Pool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.down
}

// fastLadder shortens the retry and probe ladders so a dead fleet
// exhausts, and a revived one is readmitted, in milliseconds.
func fastLadder(spec WorkerSpec) Options {
	return Options{
		Workers:   []WorkerSpec{spec},
		RetryBase: time.Millisecond,
		RetryMax:  5 * time.Millisecond,
		ProbeBase: 5 * time.Millisecond,
		ProbeMax:  20 * time.Millisecond,
	}
}

// TestPoolAuthPinnedNeverLatches: a fleet quarantined by key rejections
// has no probe to wait for, so it keeps failing as plain ErrNoWorkers
// (a config error, 502) and never latches.
func TestPoolAuthPinnedNeverLatches(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerOptions{Sim: &stubSim{}, Key: "other"}).Handler())
	defer srv.Close()
	p := newTestPool(t, fastLadder(WorkerSpec{URL: srv.URL, Key: "k3y"}))

	for i := 0; i < 2; i++ {
		_, err := p.Evaluate(space.Config{2, 3, 4 + i})
		var ue *UnavailableError
		if !errors.Is(err, ErrNoWorkers) || errors.As(err, &ue) {
			t.Fatalf("query %d: err = %v, want plain ErrNoWorkers", i, err)
		}
		if latched(p) {
			t.Fatalf("query %d: auth-pinned fleet latched the pool", i)
		}
	}
}

// TestPoolLatchClearsOnReadmission: after a fleet outage latches the
// pool, reviving the worker lets a probe readmit it, which clears the
// latch, and the same pool serves again.
func TestPoolLatchClearsOnReadmission(t *testing.T) {
	var down atomic.Bool
	inner := NewWorker(WorkerOptions{Sim: &stubSim{}}).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	p := newTestPool(t, fastLadder(WorkerSpec{URL: srv.URL}))

	down.Store(true)
	if _, err := p.Evaluate(space.Config{2, 3, 4}); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("outage: err = %v, want ErrNoWorkers", err)
	}
	if !latched(p) {
		t.Fatal("outage did not latch the pool")
	}

	down.Store(false)
	cfg := space.Config{5, 6, 7}
	deadline := time.Now().Add(5 * time.Second)
	for {
		lam, err := p.Evaluate(cfg)
		if err == nil {
			if want := stubLambda(cfg); lam != want {
				t.Fatalf("lambda = %v, want %v", lam, want)
			}
			break
		}
		if !errors.As(err, new(*UnavailableError)) {
			t.Fatalf("while latched: err = %v, want *UnavailableError", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never recovered after the worker revived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if latched(p) {
		t.Fatal("readmission did not clear the latch")
	}
}

package simpool

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/space"
)

// deadWorkerSpec returns a spec whose address refuses connections: an
// httptest server booted only to reserve a port, then closed.
func deadWorkerSpec(t *testing.T) WorkerSpec {
	t.Helper()
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()
	return WorkerSpec{URL: url}
}

// TestBackoffBoundaries pins the retry ladder at its edges: the first
// retry jitters within [base/2, base], and attempt counts large enough
// to overflow the shift clamp to [max/2, max] instead of going negative.
func TestBackoffBoundaries(t *testing.T) {
	p := &Pool{retryBase: 100 * time.Millisecond, retryMax: 5 * time.Second}
	for i := 0; i < 50; i++ {
		if d := p.backoff(1); d < 50*time.Millisecond || d > 100*time.Millisecond {
			t.Fatalf("backoff(1) = %v, want in [50ms, 100ms]", d)
		}
		// 100ms << 62 overflows int64; the clamp must land on retryMax.
		if d := p.backoff(63); d < 2500*time.Millisecond || d > 5*time.Second {
			t.Fatalf("backoff(63) = %v, want in [2.5s, 5s]", d)
		}
		if d := p.backoff(10); d < 2500*time.Millisecond || d > 5*time.Second {
			t.Fatalf("backoff(10) = %v, want clamped to [2.5s, 5s]", d)
		}
	}
}

// TestMaxAttemptsOneFailsFast pins the MaxAttempts=1 boundary: one dead
// worker, one dispatch, no retries — the caller gets the typed
// ErrNoWorkers immediately instead of a backoff ladder.
func TestMaxAttemptsOneFailsFast(t *testing.T) {
	p := newTestPool(t, Options{
		Workers:     []WorkerSpec{deadWorkerSpec(t)},
		MaxAttempts: 1,
	})
	start := time.Now()
	_, err := p.Evaluate(space.Config{2, 3, 4})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("MaxAttempts=1 failure took %v, want fast", elapsed)
	}
	if st := p.Stats(); st.NRetried != 0 {
		t.Errorf("NRetried = %d with MaxAttempts=1, want 0", st.NRetried)
	}
}

// TestAllQuarantinedHonoursDeadline parks a task in the all-quarantined
// backoff loop and checks a nearly-expired context is honoured promptly:
// the caller gets its deadline error in milliseconds, not after the
// retry ladder runs out.
func TestAllQuarantinedHonoursDeadline(t *testing.T) {
	p := newTestPool(t, Options{
		Workers:   []WorkerSpec{deadWorkerSpec(t)},
		RetryBase: time.Second, // park firmly between attempts
		RetryMax:  time.Second,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.EvaluateContext(ctx, space.Config{2, 3, 4})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// The 50ms deadline plus one janitor wake (maxWake 250ms) bounds
	// the return; anything near RetryBase means the ctx was ignored.
	if elapsed > 800*time.Millisecond {
		t.Fatalf("deadline honoured after %v, want promptly", elapsed)
	}
}

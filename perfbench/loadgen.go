package main

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one open-loop request. Times are offsets from the rung's
// start: due is when the schedule said to send, start when a connection
// actually sent it, done when the reply was in. A request never sent
// (the rung ran out of time) has start < 0.
type sample struct {
	due, start, done time.Duration
	idle             bool // the sender was waiting for due, not busy
	err              bool
}

// latency is the request's time from its due time, so a stall also
// charges the requests that queued behind it.
func (s sample) latency() time.Duration { return s.done - s.due }

// poissonOffsets returns n arrival offsets of a Poisson process at rate
// per second.
func poissonOffsets(rng *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// openLoop sends one request per offset from conns sender goroutines,
// each owning one connection: a sender takes the next request, sleeps
// until it is due if it is early, and sends. Requests still unsent at
// cutoff are abandoned. It returns once every sender has stopped.
func openLoop(offsets []time.Duration, conns int, cutoff time.Duration, send func(i int) error) []sample {
	out := make([]sample, len(offsets))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(offsets) {
					return
				}
				s := &out[i]
				s.due, s.start = offsets[i], -1
				now := time.Since(t0)
				if now > cutoff {
					continue
				}
				if now < s.due {
					s.idle = true
					sleepUntil(t0, s.due)
				}
				s.start = time.Since(t0)
				s.err = send(i) != nil
				s.done = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	return out
}

// rungStats summarises one rate of the ladder.
type rungStats struct {
	rate               float64
	n, errs, unsent    int
	p50, tail, tailPct float64 // ms from due time; tailPct is the reported percentile
	lagP99             float64 // ms a waiting sender woke late
	backlog            bool
}

// pass reports whether the rung met the latency limit with no errors and
// no growing backlog.
func (r rungStats) pass(limitMS float64) bool {
	return r.errs == 0 && !r.backlog && r.tail <= limitMS
}

// summarise computes a rung's statistics. The backlog grows when
// requests were left unsent, or when the queueing delay (start - due) of
// the last quarter of the schedule exceeds the first quarter's by more
// than half the latency limit: a system keeping up drains its queue
// between bursts, one falling behind accumulates it.
func summarise(rate float64, samples []sample, limitMS float64) rungStats {
	r := rungStats{rate: rate}
	var lat, lag []float64
	for _, s := range samples {
		if s.start < 0 {
			r.unsent++
			continue
		}
		r.n++
		if s.err {
			r.errs++
			continue
		}
		lat = append(lat, ms(s.latency()))
		if s.idle {
			lag = append(lag, ms(s.start-s.due))
		}
	}
	r.tailPct = min(99, tailPercentile(len(lat)))
	r.p50 = percentile(lat, 50)
	r.tail = percentile(lat, r.tailPct)
	r.lagP99 = percentile(lag, min(99, tailPercentile(len(lag))))
	r.backlog = r.unsent > 0 || queueGrowth(samples) > limitMS/2
	return r
}

// queueGrowth returns the median queueing delay (ms) of the last quarter
// of sent requests minus that of the first quarter.
func queueGrowth(samples []sample) float64 {
	var sent []sample
	for _, s := range samples {
		if s.start >= 0 {
			sent = append(sent, s)
		}
	}
	if len(sent) < 8 {
		return 0
	}
	sort.Slice(sent, func(a, b int) bool { return sent[a].due < sent[b].due })
	q := len(sent) / 4
	wait := func(ss []sample) float64 {
		w := make([]float64, len(ss))
		for i, s := range ss {
			w[i] = ms(s.start - s.due)
		}
		return percentile(w, 50)
	}
	return wait(sent[len(sent)-q:]) - wait(sent[:q])
}

// sleepUntil blocks until t0+at. Go's runtime timers fire on a
// millisecond grid on Linux, which would make every idle sender up to
// 1 ms late; the last stretch of the wait is a nanosleep system call
// instead, precise to a few microseconds.
func sleepUntil(t0 time.Time, at time.Duration) {
	if wait := at - time.Since(t0) - 2*time.Millisecond; wait > 0 {
		time.Sleep(wait)
	}
	if wait := at - time.Since(t0); wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only sends early
	}
}

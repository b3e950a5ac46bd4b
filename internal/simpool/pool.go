package simpool

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/space"
)

// Default scheduler tuning, overridable through Options. The retry
// ladder is sized so a fully-dead pool exhausts its attempts in under
// about a second instead of hanging.
const (
	defaultPerWorkerCap = 4
	defaultMaxAttempts  = 8
	defaultRetryBase    = 5 * time.Millisecond
	defaultRetryMax     = 250 * time.Millisecond
	defaultProbeBase    = 25 * time.Millisecond
	defaultProbeMax     = time.Second

	// maxWake bounds how long the janitor sleeps without a kick, so a
	// lost edge case degrades to a short poll instead of a stall.
	maxWake = 250 * time.Millisecond
	// rttWindow is how many recent round-trips feed each worker's
	// p50/p99 gauges and, pooled over the workers, the hedge delay.
	rttWindow = 128
	// coldHedgeAfter is the hedge delay until the first round-trip is
	// recorded; hedgeRefresh is how many recorded round-trips pass
	// between recomputations of the delay.
	coldHedgeAfter = 100 * time.Millisecond
	hedgeRefresh   = 16
	// probeTimeout bounds one health probe of a quarantined worker.
	probeTimeout = 2 * time.Second
)

// WorkerSpec addresses one remote worker.
type WorkerSpec struct {
	// URL is the worker's base URL (scheme://host:port).
	URL string
	// Key is the worker's API key; empty for an unauthenticated worker.
	Key string
}

// ParseWorkerSpec parses one "url[:key]" element of EVALD_SIM_WORKERS /
// -sim-workers. Because URLs contain colons, the key is taken after the
// LAST colon — unless that suffix is all digits, which is read as the
// port of a key-less URL. Purely numeric API keys are therefore not
// representable; generate keys with letters in them.
func ParseWorkerSpec(s string) (WorkerSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return WorkerSpec{}, errors.New("simpool: empty worker spec")
	}
	url, key := s, ""
	if i := strings.LastIndexByte(s, ':'); i >= 0 {
		if suffix := s[i+1:]; suffix != "" && !allDigits(suffix) && !strings.Contains(suffix, "/") {
			url, key = s[:i], suffix
		}
	}
	if !strings.Contains(url, "://") {
		return WorkerSpec{}, fmt.Errorf("simpool: worker spec %q: URL must include a scheme (http://...)", s)
	}
	return WorkerSpec{URL: strings.TrimRight(url, "/"), Key: key}, nil
}

// ParseWorkerSpecs parses a comma-separated list of "url[:key]" specs.
func ParseWorkerSpecs(s string) ([]WorkerSpec, error) {
	var specs []WorkerSpec
	for _, part := range strings.Split(s, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		spec, err := ParseWorkerSpec(part)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, errors.New("simpool: no worker specs")
	}
	return specs, nil
}

func allDigits(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return len(s) > 0
}

// Options configures a Pool.
type Options struct {
	// Workers lists the remote workers. Required, at least one.
	Workers []WorkerSpec
	// Nv is the configuration dimensionality the pool reports; it must
	// match the benchmark every worker serves.
	Nv int
	// PerWorkerCap bounds the attempts outstanding on one worker at
	// once; zero selects 4. Match it to the worker's -capacity so
	// dispatch prefers free workers over queueing on busy ones.
	PerWorkerCap int
	// MaxAttempts bounds dispatch attempts per config, counting both
	// failed flights and backoff rounds spent with every worker
	// quarantined; zero selects 8. With the default retry ladder the
	// budget exhausts in under a second, so a dead pool fails fast with
	// ErrNoWorkers instead of hanging.
	MaxAttempts int
	// RetryBase/RetryMax shape the per-config exponential backoff
	// (base·2^attempt, jittered, capped). Zero selects 5ms / 250ms.
	RetryBase time.Duration
	RetryMax  time.Duration
	// ProbeBase/ProbeMax shape the quarantine probe backoff. Zero
	// selects 25ms / 1s.
	ProbeBase time.Duration
	ProbeMax  time.Duration
	// Client issues the HTTP requests; nil builds one with pooled
	// keep-alive connections. Any per-request timeout comes from the
	// caller's context, never the client.
	Client *http.Client
	// Logger receives scheduler events (quarantines, probes, hedges);
	// nil discards.
	Logger *slog.Logger
}

// worker is the pool's accounting record for one remote worker.
type worker struct {
	url string
	key string

	inflight    int
	quarantined bool
	// noProbe pins a quarantine permanently: the worker rejected our
	// API key, so /healthz (unauthenticated) would lie about usability.
	noProbe    bool
	probing    bool
	probeAt    time.Time
	probeDelay time.Duration

	dispatched uint64
	failures   uint64

	rtts [rttWindow]time.Duration
	rttN int // total recorded, ring index = rttN % rttWindow
}

// task is one configuration moving through the scheduler. A task is
// either parked in Pool.pending (waiting for dispatch or backoff) or a
// member of Pool.inflight with live > 0 attempts racing.
type task struct {
	cfg  space.Config
	body []byte // pre-marshalled request, shared by every attempt
	ctx  context.Context
	done chan struct{}

	lam      float64
	err      error
	resolved bool

	attempts     int // failed flights + all-quarantined backoff rounds
	live         int // attempts currently racing
	hedged       bool
	notBefore    time.Time // backoff parking; zero means dispatch now
	lastDispatch time.Time

	nextID  int
	cancels map[int]context.CancelFunc
	on      map[int]*worker // attempt id -> worker, for hedge exclusion
}

// Pool is the client-side scheduler over a set of remote workers. It
// satisfies the evaluator's ContextSimulator shape (Evaluate,
// EvaluateContext, Nv), so plugging remote simulation into the Engine
// is a one-line swap of the simulator.
type Pool struct {
	nv          int
	perCap      int
	maxAttempts int
	retryBase   time.Duration
	retryMax    time.Duration
	probeBase   time.Duration
	probeMax    time.Duration
	client      *http.Client
	logger      *slog.Logger

	mu       sync.Mutex
	workers  []*worker
	pending  []*task
	inflight map[*task]struct{}
	closed   bool
	// down latches a dead fleet: a task ran out of attempts while every
	// worker was quarantined and a readmission probe was scheduled. Until
	// a probe readmits a worker, tasks that find no healthy worker fail
	// at once with *UnavailableError instead of walking the backoff
	// ladder again.
	down bool

	// hedgeAfter is how long a task's sole attempt may run before it is
	// duplicated onto another worker: the p99 of the round-trips in the
	// workers' RTT rings, recomputed every hedgeRefresh recordings, and
	// coldHedgeAfter until the first. hedgePinned freezes it for tests;
	// a negative pinned value switches hedging off.
	hedgeAfter  time.Duration
	hedgePinned bool
	nRTT        uint64 // round-trips recorded over all workers

	nRemote   uint64 // successful remote simulations, duplicates included
	nHedged   uint64 // duplicate dispatches of stragglers
	nRetried  uint64 // re-dispatches after a retryable failure
	nRequeued uint64 // in-flight configs pushed back by a worker death

	kick     chan struct{}
	closedCh chan struct{}
	janitorW sync.WaitGroup
}

// NewPool builds and starts the scheduler. Workers are assumed healthy
// until a flight or probe says otherwise; a worker that is down at
// construction is discovered and quarantined by its first dispatch.
func NewPool(opts Options) (*Pool, error) {
	if len(opts.Workers) == 0 {
		return nil, errors.New("simpool: Options.Workers is empty")
	}
	if opts.Nv <= 0 {
		return nil, errors.New("simpool: Options.Nv must be positive")
	}
	p := &Pool{
		nv:          opts.Nv,
		perCap:      pick(opts.PerWorkerCap, defaultPerWorkerCap),
		maxAttempts: pick(opts.MaxAttempts, defaultMaxAttempts),
		retryBase:   pickPos(opts.RetryBase, defaultRetryBase),
		retryMax:    pickPos(opts.RetryMax, defaultRetryMax),
		probeBase:   pickPos(opts.ProbeBase, defaultProbeBase),
		probeMax:    pickPos(opts.ProbeMax, defaultProbeMax),
		client:      opts.Client,
		logger:      opts.Logger,
		hedgeAfter:  coldHedgeAfter,
		inflight:    make(map[*task]struct{}),
		kick:        make(chan struct{}, 1),
		closedCh:    make(chan struct{}),
	}
	if p.client == nil {
		p.client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if p.logger == nil {
		p.logger = slog.New(discardHandler{})
	}
	for _, spec := range opts.Workers {
		p.workers = append(p.workers, &worker{url: spec.URL, key: spec.Key})
	}
	p.janitorW.Add(1)
	go p.janitor()
	return p, nil
}

func pick(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// pickPos maps any non-positive duration to the default.
func pickPos(v, def time.Duration) time.Duration {
	if v <= 0 {
		return def
	}
	return v
}

// Nv returns the configuration dimensionality.
func (p *Pool) Nv() int { return p.nv }

// Evaluate runs one configuration on the pool with no deadline.
func (p *Pool) Evaluate(cfg space.Config) (float64, error) {
	return p.EvaluateContext(context.Background(), cfg)
}

// EvaluateContext runs one configuration on the pool: enqueue, let the
// scheduler dispatch/hedge/requeue, and return the first successful
// response. The error is ctx.Err() if the caller's deadline fires
// first, ErrSimulation if a worker ran the simulation and the simulator
// failed (deterministic — retries cannot help), ErrNoWorkers once the
// retry budget exhausts against a dead pool, and *UnavailableError
// (which also matches ErrNoWorkers) while the pool is latched down.
func (p *Pool) EvaluateContext(ctx context.Context, cfg space.Config) (float64, error) {
	if len(cfg) != p.nv {
		return 0, fmt.Errorf("simpool: config has %d variables, want %d", len(cfg), p.nv)
	}
	body, err := json.Marshal(simulateRequest{Config: cfg})
	if err != nil {
		return 0, fmt.Errorf("simpool: encode request: %w", err)
	}
	t := &task{
		cfg:     append(space.Config(nil), cfg...),
		body:    body,
		ctx:     ctx,
		done:    make(chan struct{}),
		cancels: make(map[int]context.CancelFunc),
		on:      make(map[int]*worker),
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return 0, ErrPoolClosed
	}
	p.pending = append(p.pending, t)
	p.mu.Unlock()
	p.wake()
	select {
	case <-t.done:
		return t.lam, t.err
	case <-ctx.Done():
		p.mu.Lock()
		p.resolveLocked(t, 0, ctx.Err())
		p.mu.Unlock()
		return 0, ctx.Err()
	}
}

// Close shuts the scheduler down: in-flight attempts are cancelled,
// queued and racing configs fail with ErrPoolClosed, and the janitor
// exits. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.closedCh)
	for _, t := range p.pending {
		p.resolveLocked(t, 0, ErrPoolClosed)
	}
	p.pending = nil
	for t := range p.inflight {
		p.resolveLocked(t, 0, ErrPoolClosed)
	}
	p.mu.Unlock()
	p.janitorW.Wait()
	p.client.CloseIdleConnections()
}

// wake nudges the janitor without blocking.
func (p *Pool) wake() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// janitor is the scheduler's single background goroutine: it dispatches
// pending work, hedges stragglers, launches quarantine probes,
// and sleeps until the earliest timed event or the next kick.
func (p *Pool) janitor() {
	defer p.janitorW.Done()
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		now := time.Now()
		p.startProbesLocked(now)
		p.dispatchLocked(now)
		p.hedgeLocked(now)
		wait := p.nextWakeLocked(now)
		p.mu.Unlock()

		timer := time.NewTimer(wait)
		select {
		case <-p.kick:
			timer.Stop()
		case <-timer.C:
		case <-p.closedCh:
			timer.Stop()
			return
		}
	}
}

// dispatchLocked moves ready pending tasks onto the least-loaded
// healthy workers. When every worker is quarantined, each ready task
// burns one attempt of its retry budget and parks on backoff — this is
// the path that turns a fully-dead pool into a typed failure — or, once
// the pool is latched down, fails at once with *UnavailableError.
func (p *Pool) dispatchLocked(now time.Time) {
	keep := p.pending[:0]
	for _, t := range p.pending {
		if t.resolved {
			continue
		}
		if err := t.ctx.Err(); err != nil {
			p.resolveLocked(t, 0, err)
			continue
		}
		if now.Before(t.notBefore) {
			keep = append(keep, t)
			continue
		}
		w := p.pickWorkerLocked(nil)
		if w == nil {
			if p.anyHealthyLocked() {
				// Healthy workers exist but all are at capacity: not a
				// failure, just wait for a completion kick.
				keep = append(keep, t)
				continue
			}
			if p.down {
				p.resolveLocked(t, 0, &UnavailableError{RetryAfter: p.nextProbeLocked(now)})
				continue
			}
			t.attempts++
			if t.attempts >= p.maxAttempts {
				p.giveUpLocked(t, fmt.Errorf(
					"%w: config %v gave up after %d attempts with every worker quarantined",
					ErrNoWorkers, t.cfg, t.attempts))
				continue
			}
			t.notBefore = now.Add(p.backoff(t.attempts))
			keep = append(keep, t)
			continue
		}
		if t.attempts > 0 {
			p.nRetried++
		}
		p.startAttemptLocked(t, w, now)
		p.inflight[t] = struct{}{}
	}
	p.pending = keep
}

// hedgeLocked duplicates stragglers: a task whose sole attempt has run
// past hedgeAfter gets one more attempt on the least-loaded other
// healthy worker with spare capacity, an idle one when there is one.
// Duplicates are safe: simulation is deterministic per config and the
// first response wins.
func (p *Pool) hedgeLocked(now time.Time) {
	for t := range p.inflight {
		if !p.hedgeableLocked(t) || now.Sub(t.lastDispatch) < p.hedgeAfter {
			continue
		}
		w := p.pickWorkerLocked(t.anyWorker())
		if w == nil {
			continue
		}
		p.nHedged++
		p.logger.Debug("hedge", "config", t.cfg.String(), "worker", w.url)
		p.startAttemptLocked(t, w, now)
		t.hedged = true
	}
}

// hedgeableLocked reports whether t may still get a hedge: hedging is
// on and t is unresolved with one live attempt and no duplicate yet.
func (p *Pool) hedgeableLocked(t *task) bool {
	return p.hedgeAfter >= 0 && !t.resolved && !t.hedged && t.live == 1
}

// startProbesLocked launches health probes for quarantined workers past
// their probe time.
func (p *Pool) startProbesLocked(now time.Time) {
	for _, w := range p.workers {
		if w.quarantined && !w.noProbe && !w.probing && !now.Before(w.probeAt) {
			w.probing = true
			go p.probe(w)
		}
	}
}

// probe asks a quarantined worker's /healthz whether it is back, and
// readmits it (or doubles its probe backoff) accordingly.
func (p *Pool) probe(w *worker) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	ok := false
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	if err == nil {
		resp, err := p.client.Do(req)
		if err == nil {
			var hz healthzResponse
			body, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && rerr == nil && json.Unmarshal(body, &hz) == nil {
				// A live worker serving the wrong benchmark is as unusable
				// as a dead one; keep it quarantined.
				ok = hz.Status == "ok" && hz.Nv == p.nv
			}
		}
	}
	p.mu.Lock()
	w.probing = false
	if ok {
		w.quarantined = false
		w.probeDelay = 0
		p.down = false
		p.logger.Info("worker readmitted", "worker", w.url)
	} else {
		w.probeDelay = min(w.probeDelay*2, p.probeMax)
		w.probeAt = time.Now().Add(w.probeDelay)
	}
	p.mu.Unlock()
	if ok {
		p.wake()
	}
}

// pickWorkerLocked returns the healthy worker with the fewest
// outstanding attempts and spare capacity, excluding `not` (the worker
// already running the task, for hedges); nil when none qualifies.
func (p *Pool) pickWorkerLocked(not *worker) *worker {
	var best *worker
	for _, w := range p.workers {
		if w == not || w.quarantined || w.inflight >= p.perCap {
			continue
		}
		if best == nil || w.inflight < best.inflight {
			best = w
		}
	}
	return best
}

func (p *Pool) anyHealthyLocked() bool {
	for _, w := range p.workers {
		if !w.quarantined {
			return true
		}
	}
	return false
}

// anyWorker returns a worker currently running one of the task's live
// attempts (the hedge exclusion target).
func (t *task) anyWorker() *worker {
	for _, w := range t.on {
		return w
	}
	return nil
}

// startAttemptLocked launches one flight of t on w.
func (p *Pool) startAttemptLocked(t *task, w *worker, now time.Time) {
	actx, cancel := context.WithCancel(t.ctx)
	id := t.nextID
	t.nextID++
	t.cancels[id] = cancel
	t.on[id] = w
	t.live++
	t.lastDispatch = now
	w.inflight++
	w.dispatched++
	go p.runAttempt(t, w, id, actx)
}

// attempt outcomes, classified by runAttempt.
type outcome int

const (
	outcomeOK outcome = iota
	// outcomePermanent: the request reached a healthy worker and cannot
	// succeed by retrying (simulator failure, protocol mismatch).
	outcomePermanent
	// outcomeRetryable: the WORKER failed (transport error, 5xx, torn
	// body) — quarantine it and run the config elsewhere.
	outcomeRetryable
	// outcomeAuth: the worker rejected our key. Quarantine it with
	// probing pinned off — /healthz is unauthenticated and would
	// readmit a worker we still cannot use.
	outcomeAuth
	// outcomeCancelled: our own context died (hedge loser, caller
	// deadline, pool shutdown). Not a worker failure.
	outcomeCancelled
)

// runAttempt performs one POST /v1/simulate flight and hands the
// classified outcome back to the scheduler.
func (p *Pool) runAttempt(t *task, w *worker, id int, actx context.Context) {
	start := time.Now()
	lam, out, err := p.flight(actx, w, t.body)
	p.finishAttempt(t, w, id, lam, out, err, time.Since(start))
}

func (p *Pool) flight(actx context.Context, w *worker, body []byte) (float64, outcome, error) {
	req, err := http.NewRequestWithContext(actx, http.MethodPost, w.url+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return 0, outcomePermanent, fmt.Errorf("simpool: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if w.key != "" {
		req.Header.Set("Authorization", "Bearer "+w.key)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		if actx.Err() != nil {
			return 0, outcomeCancelled, actx.Err()
		}
		return 0, outcomeRetryable, fmt.Errorf("simpool: %s: %w", w.url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		if actx.Err() != nil {
			return 0, outcomeCancelled, actx.Err()
		}
		// A torn body is the signature of a worker dying mid-response;
		// the config is safe to rerun because nothing was committed.
		return 0, outcomeRetryable, fmt.Errorf("simpool: %s: torn response: %w", w.url, err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		var sr simulateResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			return 0, outcomeRetryable, fmt.Errorf("simpool: %s: bad response body: %w", w.url, err)
		}
		return sr.Lambda, outcomeOK, nil
	case http.StatusUnauthorized:
		return 0, outcomeAuth, fmt.Errorf("simpool: %s rejected API key", w.url)
	case http.StatusUnprocessableEntity:
		return 0, outcomePermanent, fmt.Errorf("%w: %s: %s", ErrSimulation, w.url, errBody(raw))
	case http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed:
		return 0, outcomePermanent, fmt.Errorf("simpool: %s rejected request: %s", w.url, errBody(raw))
	default:
		// 429, 500, 503 (draining) and anything unexpected: the worker
		// is unfit right now, the config is fine.
		return 0, outcomeRetryable, fmt.Errorf("simpool: %s returned %d: %s", w.url, resp.StatusCode, errBody(raw))
	}
}

// errBody extracts the {"error": ...} message from a worker response,
// falling back to the raw bytes.
func errBody(raw []byte) string {
	var er errorResponse
	if json.Unmarshal(raw, &er) == nil && er.Error != "" {
		return er.Error
	}
	return strings.TrimSpace(string(raw))
}

// finishAttempt is the scheduler's accounting step for one completed
// flight: first response wins, worker deaths quarantine + requeue, and
// a config whose budget is spent fails with a typed error.
func (p *Pool) finishAttempt(t *task, w *worker, id int, lam float64, out outcome, err error, rtt time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cancel, ok := t.cancels[id]; ok {
		cancel()
		delete(t.cancels, id)
		delete(t.on, id)
		t.live--
		w.inflight--
	}
	switch out {
	case outcomeOK:
		p.nRemote++
		p.recordRTTLocked(w, rtt)
		p.resolveLocked(t, lam, nil)
		p.wake() // capacity freed
		return
	case outcomeCancelled:
		// Hedge loser, caller deadline or shutdown. If the caller's own
		// context died and this was the last attempt, surface that.
		if !t.resolved && t.live == 0 {
			if cerr := t.ctx.Err(); cerr != nil {
				p.resolveLocked(t, 0, cerr)
			}
		}
		p.wake()
		return
	case outcomePermanent:
		p.recordRTTLocked(w, rtt)
		p.resolveLocked(t, 0, err)
		p.wake()
		return
	}
	// outcomeRetryable / outcomeAuth: the worker is unfit.
	w.failures++
	p.quarantineLocked(w, out == outcomeAuth, err)
	if t.resolved {
		p.wake()
		return
	}
	if t.live > 0 {
		// A sibling attempt is still racing on another worker; let it
		// finish, and allow a fresh hedge if it straggles.
		t.hedged = false
		p.wake()
		return
	}
	if cerr := t.ctx.Err(); cerr != nil {
		p.resolveLocked(t, 0, cerr)
		p.wake()
		return
	}
	t.attempts++
	if t.attempts >= p.maxAttempts {
		p.giveUpLocked(t, fmt.Errorf(
			"%w: config %v exhausted %d attempts (last: %v)", ErrNoWorkers, t.cfg, t.attempts, err))
		p.wake()
		return
	}
	// Requeue: the in-flight config goes back to pending and will be
	// re-dispatched onto a surviving worker after a jittered backoff.
	p.nRequeued++
	delete(p.inflight, t)
	t.hedged = false
	t.notBefore = time.Now().Add(p.backoff(t.attempts))
	p.pending = append(p.pending, t)
	p.logger.Info("requeued", "config", t.cfg.String(), "from", w.url, "attempt", t.attempts, "cause", err)
	p.wake()
}

// quarantineLocked takes a worker out of rotation and schedules its
// first readmission probe.
func (p *Pool) quarantineLocked(w *worker, authFailure bool, cause error) {
	if w.quarantined {
		if authFailure {
			w.noProbe = true
		}
		return
	}
	w.quarantined = true
	w.noProbe = authFailure
	w.probeDelay = p.probeBase
	w.probeAt = time.Now().Add(w.probeDelay)
	p.logger.Warn("worker quarantined", "worker", w.url, "auth", authFailure, "cause", cause)
}

// giveUpLocked fails a task whose attempts are spent with err (an
// ErrNoWorkers) and latches the pool down when no worker is healthy but
// at least one is still probed for readmission. A fleet pinned out by
// auth failures never latches: a wrong key is a configuration error
// that no wait can fix, so it keeps failing as plain ErrNoWorkers.
func (p *Pool) giveUpLocked(t *task, err error) {
	if !p.down && !p.anyHealthyLocked() {
		for _, w := range p.workers {
			if !w.noProbe {
				p.down = true
				p.logger.Warn("pool down: every worker quarantined", "cause", err)
				break
			}
		}
	}
	p.resolveLocked(t, 0, err)
}

// nextProbeLocked returns the wait until the earliest scheduled
// readmission probe, in (0, ProbeMax]: the Retry-After of a latched
// pool. A probe already in flight counts as imminent.
func (p *Pool) nextProbeLocked(now time.Time) time.Duration {
	wait := p.probeMax
	for _, w := range p.workers {
		if w.quarantined && !w.noProbe {
			wait = min(wait, w.probeAt.Sub(now))
		}
	}
	return max(wait, time.Millisecond)
}

// resolveLocked finishes a task exactly once: record the result, cancel
// any attempts still racing, and release the waiter.
func (p *Pool) resolveLocked(t *task, lam float64, err error) {
	if t.resolved {
		return
	}
	t.resolved = true
	t.lam, t.err = lam, err
	for _, cancel := range t.cancels {
		cancel()
	}
	delete(p.inflight, t)
	close(t.done)
}

// backoff returns the jittered exponential delay for attempt n (1-based):
// uniformly in [d/2, d] for d = min(base·2^(n-1), max).
func (p *Pool) backoff(n int) time.Duration {
	d := p.retryBase << (n - 1)
	if d > p.retryMax || d <= 0 {
		d = p.retryMax
	}
	half := int64(d / 2)
	return time.Duration(half + rand.Int63n(half+1))
}

// nextWakeLocked computes how long the janitor may sleep: until the
// next backoff expiry, hedge deadline or probe time, capped so a missed
// edge degrades to a short poll. A hedge already due found no free
// worker this round; the completion that frees one kicks the janitor.
func (p *Pool) nextWakeLocked(now time.Time) time.Duration {
	wait := maxWake
	consider := func(at time.Time) {
		if d := at.Sub(now); d < wait {
			wait = d
		}
	}
	for _, t := range p.pending {
		if !t.notBefore.IsZero() && t.notBefore.After(now) {
			consider(t.notBefore)
		}
	}
	for t := range p.inflight {
		if at := t.lastDispatch.Add(p.hedgeAfter); p.hedgeableLocked(t) && at.After(now) {
			consider(at)
		}
	}
	for _, w := range p.workers {
		if w.quarantined && !w.noProbe && !w.probing {
			consider(w.probeAt)
		}
	}
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return wait
}

// recordRTTLocked adds one round-trip to w's ring and recomputes
// hedgeAfter on the first recording and every hedgeRefresh after it.
func (p *Pool) recordRTTLocked(w *worker, rtt time.Duration) {
	w.rtts[w.rttN%rttWindow] = rtt
	w.rttN++
	p.nRTT++
	if p.hedgePinned || p.nRTT%hedgeRefresh != 1 {
		return
	}
	var all []time.Duration
	for _, w := range p.workers {
		all = append(all, w.recentRTTs()...)
	}
	_, p.hedgeAfter = rttQuantiles(all)
}

// recentRTTs returns w's ring: its last rttWindow round-trips, unordered.
func (w *worker) recentRTTs() []time.Duration {
	return w.rtts[:min(w.rttN, rttWindow)]
}

// rttQuantiles sorts rtts in place and returns their p50 and p99, both
// zero when rtts is empty. The WorkerStats gauges and hedgeAfter share it.
func rttQuantiles(rtts []time.Duration) (p50, p99 time.Duration) {
	n := len(rtts)
	if n == 0 {
		return 0, 0
	}
	slices.Sort(rtts)
	return rtts[n/2], rtts[n*99/100]
}

// WorkerStats is one worker's live gauge row.
type WorkerStats struct {
	URL         string
	Inflight    int
	Quarantined bool
	Dispatched  uint64
	Failures    uint64
	P50         time.Duration
	P99         time.Duration
}

// Stats is a point-in-time snapshot of the scheduler.
type Stats struct {
	NRemoteSims uint64
	NHedged     uint64
	NRetried    uint64
	NRequeued   uint64
	Workers     []WorkerStats
}

// Stats snapshots the pool counters and per-worker gauges.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{
		NRemoteSims: p.nRemote,
		NHedged:     p.nHedged,
		NRetried:    p.nRetried,
		NRequeued:   p.nRequeued,
		Workers:     make([]WorkerStats, 0, len(p.workers)),
	}
	for _, w := range p.workers {
		p50, p99 := rttQuantiles(slices.Clone(w.recentRTTs()))
		st.Workers = append(st.Workers, WorkerStats{
			URL:         w.url,
			Inflight:    w.inflight,
			Quarantined: w.quarantined,
			Dispatched:  w.dispatched,
			Failures:    w.failures,
			P50:         p50,
			P99:         p99,
		})
	}
	return st
}

// RemoteSimCounts returns the four scheduler counters without building
// the per-worker gauges Stats sorts; the request-log middleware reads
// it twice per request.
func (p *Pool) RemoteSimCounts() (nremote, nhedged, nretried, nrequeued uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nRemote, p.nHedged, p.nRetried, p.nRequeued
}

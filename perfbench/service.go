package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/evaluator"
	"repro/internal/httpapi"
	"repro/internal/kriging"
	"repro/internal/metrics"
	"repro/internal/optim"
	"repro/internal/space"
	"repro/internal/store"
)

// The open-loop rate ladder, its nominal rate and the latency limit were
// fixed from calibration runs on a 2-CPU host (see README.md). A warm
// /v1/evaluate costs ~0.19 ms of CPU across client and server, and two
// keep-alive connections saturate near 7-9k req/s. The nominal rate
// sits well inside capacity, so its tail reflects service time. The
// limit sits above the unloaded p99 and below the tail of a queue that
// grows within a rung.
var (
	nominalRate   = 1000.0
	ladderRates   = []float64{4000, 5000, 5500, 6000, 6500, 7000, 7500, 8000, 9000}
	latencyLimit  = 10.0 // ms, on the reported tail percentile
	serviceConns  = 2
	serviceAPIKey = "perfbench-key"
)

// recordedCampaigns are replayed by service-read: the store is preloaded
// with their simulated points, and their queries form the stream.
var recordedCampaigns = []struct {
	algo string
	db   float64
}{
	{"minplus1", -35}, {"minplus1", -40}, {"minplus1", -45},
	{"max1", -40}, {"anneal", -40},
}

// replayChunk is the unit of the closed-loop replay that keeps its
// fastest cycle: short enough that a cycle's slow seconds and fast
// seconds fall into different chunks.
const replayChunk = 200

// epsPerRecorded bounds the kriged stream answers re-simulated per
// recorded campaign for ε.
const epsPerRecorded = 64

type recorded struct {
	name    string
	queries []space.Config
	keys    []string // queries kept in the stream, as config keys
	nsim    int
	wres    space.Config
}

// expected is the reference answer to one stream query.
type expected struct {
	lambda float64
	source string
}

// serviceSetup is everything service-read builds before timing.
type serviceSetup struct {
	spec      *bench.Spec
	simSeed   uint64
	sim       evaluator.Simulator
	campaigns []recorded
	entries   []store.Entry
	truth     map[string]float64
	stream    []string // config keys, interleaved
	configs   map[string]space.Config
	bodies    map[string][]byte
	expect    map[string]expected // Engine.Evaluate's answers
}

func newServiceSetup(seed uint64) (*serviceSetup, error) {
	sp, err := bench.SpecByName("hevc", bench.Small)
	if err != nil {
		return nil, err
	}
	// The simulator is evald's default (its config seed), and the
	// annealing walk is seeded with it too: the recorded campaigns fix
	// the store, whose size sets the cost of every query, so a workload
	// seed that changed them would change the work by ±15%. The workload
	// seed drives the order of the stream and the arrival times.
	cfg, err := config.FromGetenv(func(string) string { return "" })
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	ss := &serviceSetup{spec: sp, simSeed: cfg.Seed, truth: make(map[string]float64)}
	if ss.sim, err = sp.NewSimulator(ss.simSeed); err != nil {
		return nil, err
	}
	for _, rc := range recordedCampaigns {
		rec, err := ss.record(rc.algo, rc.db, ss.simSeed)
		if err != nil {
			return nil, err
		}
		ss.campaigns = append(ss.campaigns, rec)
	}
	ss.interleave(rng)
	if err := ss.reference(); err != nil {
		return nil, err
	}
	return ss, nil
}

// record runs one campaign through a kriging evaluator with wlopt's
// settings and keeps its queries and simulated points.
func (ss *serviceSetup) record(algo string, db float64, seed uint64) (recorded, error) {
	ev, err := evaluator.New(ss.sim, wloptOptions())
	if err != nil {
		return recorded{}, err
	}
	o := &recordingOracle{inner: ev.Oracle(1)}
	lmin := -math.Pow(10, db/10)
	ctx := context.Background()
	rec := recorded{name: fmt.Sprintf("%s@%vdB", algo, db)}
	switch algo {
	case "minplus1":
		res, err := optim.MinPlusOne(ctx, o, optim.MinPlusOneOptions{LambdaMin: lmin, Bounds: ss.spec.Bounds})
		if err != nil {
			return rec, err
		}
		rec.wres = res.WRes
	case "max1":
		res, err := optim.MaxMinusOne(ctx, o, optim.MaxMinusOneOptions{LambdaMin: lmin, Bounds: ss.spec.Bounds})
		if err != nil {
			return rec, err
		}
		rec.wres = res.WRes
	default:
		res, err := optim.Anneal(ctx, o, optim.AnnealOptions{LambdaMin: lmin, Bounds: ss.spec.Bounds, Seed: seed})
		if err != nil {
			return rec, err
		}
		rec.wres = res.Best
	}
	rec.nsim = ev.Stats().NSim
	for _, a := range o.answers {
		rec.queries = append(rec.queries, a.cfg)
	}
	for _, e := range ev.Store().Entries() {
		if _, ok := ss.truth[e.Config.Key()]; !ok {
			ss.truth[e.Config.Key()] = e.Lambda
			ss.entries = append(ss.entries, e)
		}
	}
	return rec, ev.Close()
}

// interleave merges the campaigns' query sequences in seeded random
// order, each campaign's own order preserved.
func (ss *serviceSetup) interleave(rng *rand.Rand) {
	pos := make([]int, len(ss.campaigns))
	left := 0
	for _, c := range ss.campaigns {
		left += len(c.queries)
	}
	ss.stream = ss.stream[:0]
	ss.configs = make(map[string]space.Config)
	for ; left > 0; left-- {
		k := rng.Intn(left)
		for i, c := range ss.campaigns {
			if rem := len(c.queries) - pos[i]; k < rem {
				q := c.queries[pos[i]]
				ss.stream = append(ss.stream, q.Key())
				ss.configs[q.Key()] = q
				pos[i]++
				break
			} else {
				k -= rem
			}
		}
	}
}

// serverOptions are evald's evaluator options from config defaults.
func serverOptions(cfg config.Config, interp kriging.Interpolator) evaluator.Options {
	opts := evaluator.Options{D: cfg.D, NnMin: cfg.NnMin, MaxSupport: cfg.MaxSupport, Interp: interp}
	if cfg.D > 0 {
		opts.Transform, opts.Untransform = evaluator.NegPowerToDB, evaluator.DBToNegPower
	}
	return opts
}

func (ss *serviceSetup) config() (config.Config, error) {
	env := map[string]string{
		"EVALD_API_KEYS": "perfbench:" + serviceAPIKey + ":0",
		"EVALD_BENCH":    "hevc",
	}
	return config.FromGetenv(func(k string) string { return env[k] })
}

// preloaded builds an evaluator the way evald does, its store preloaded
// with the recorded campaigns' simulated points.
func (ss *serviceSetup) preloaded(interp kriging.Interpolator) (*evaluator.Evaluator, config.Config, error) {
	cfg, err := ss.config()
	if err != nil {
		return nil, cfg, err
	}
	ev, err := evaluator.New(ss.sim, serverOptions(cfg, interp))
	if err != nil {
		return nil, cfg, err
	}
	ev.Preload(ss.entries)
	return ev, cfg, nil
}

// reference answers every stream query through Engine.Evaluate on an
// identically preloaded store. Every query must be answerable without a
// simulation (it was an exact hit or kriged in its own campaign, whose
// store the preload contains), and exact hits must equal the recorded
// truth.
func (ss *serviceSetup) reference() error {
	ev, _, err := ss.preloaded(nil)
	if err != nil {
		return err
	}
	eng := ev.Engine(0)
	ss.expect = make(map[string]expected)
	ss.bodies = make(map[string][]byte)
	for _, k := range ss.stream {
		if _, ok := ss.expect[k]; ok {
			continue
		}
		c := ss.configs[k]
		res, err := eng.Evaluate(context.Background(), c)
		if err != nil {
			return err
		}
		truth, stored := ss.truth[k]
		switch {
		case res.Source == evaluator.Simulated && !stored:
			return fmt.Errorf("stream query %v needed a simulation on the preloaded store", c)
		case res.Source == evaluator.Simulated && res.Lambda != truth:
			return fmt.Errorf("%w: exact hit for %v is %v, recorded truth %v", errCheck, c, res.Lambda, truth)
		}
		ss.expect[k] = expected{res.Lambda, res.Source.String()}
		body, err := json.Marshal(map[string][]int{"config": c})
		if err != nil {
			return err
		}
		ss.bodies[k] = body
	}
	for i := range ss.campaigns {
		c := &ss.campaigns[i]
		for _, q := range c.queries {
			c.keys = append(c.keys, q.Key())
		}
	}
	return ev.Close()
}

// server is an in-process evald on a loopback listener.
type server struct {
	ev     *evaluator.Evaluator
	url    string
	cancel context.CancelFunc
	done   chan error
}

func (ss *serviceSetup) startServer(interp kriging.Interpolator) (*server, error) {
	ev, cfg, err := ss.preloaded(interp)
	if err != nil {
		return nil, err
	}
	tenants := make([]httpapi.Tenant, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		tenants[i] = httpapi.Tenant{Name: t.Name, Key: t.Key, Quota: t.Quota, AllowDegraded: t.AllowDegraded}
	}
	api := httpapi.New(httpapi.Options{
		Evaluator:      ev,
		Engine:         ev.Engine(cfg.MaxSims),
		Workers:        cfg.Workers,
		Tenants:        tenants,
		Bounds:         &ss.spec.Bounds,
		DefaultTimeout: cfg.RequestTimeout,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{ev: ev, url: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- api.ServeListener(ctx, ln, time.Second) }()
	return s, nil
}

func (s *server) stop() error {
	s.cancel()
	return <-s.done
}

// client issues /v1/evaluate over at most conns keep-alive connections,
// counting the bytes that cross them.
type client struct {
	hc        *http.Client
	url       string
	bytesSent atomic.Int64
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func newClient(url string, conns int) *client {
	c := &client{url: url + "/v1/evaluate"}
	var d net.Dialer
	c.hc = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{conn, &c.bytesSent}, nil
		},
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// evaluate posts one body and returns the decoded answer.
func (c *client) evaluate(body []byte) (expected, error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return expected{}, err
	}
	req.Header.Set("Authorization", "Bearer "+serviceAPIKey)
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return expected{}, err
	}
	defer resp.Body.Close()
	var out struct {
		Lambda float64 `json:"lambda"`
		Source string  `json:"source"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return expected{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return expected{}, fmt.Errorf("status %d", resp.StatusCode)
	}
	return expected{out.Lambda, out.Source}, nil
}

// checker compares served answers with the reference, bit for bit.
type checker struct {
	ss       *serviceSetup
	bad      atomic.Int64
	firstBad atomic.Pointer[string]
}

// ask sends stream query i (modulo the stream) and checks the answer.
func (ck *checker) ask(cl *client, i int) error {
	return ck.askKey(cl, ck.ss.stream[i%len(ck.ss.stream)])
}

func (ck *checker) askKey(cl *client, k string) error {
	got, err := cl.evaluate(ck.ss.bodies[k])
	if err != nil {
		return err
	}
	if want := ck.ss.expect[k]; math.Float64bits(got.lambda) != math.Float64bits(want.lambda) || got.source != want.source {
		ck.bad.Add(1)
		msg := fmt.Sprintf("query %v served %v (%s), Engine.Evaluate gives %v (%s)", ck.ss.configs[k], got.lambda, got.source, want.lambda, want.source)
		ck.firstBad.CompareAndSwap(nil, &msg)
		return fmt.Errorf("wrong answer")
	}
	return nil
}

// rungPlan is one ladder step.
type rungPlan struct {
	rate float64
	dur  time.Duration
}

// maxRate is the highest sustainable rate of a climb. Below the first
// failing rung it is the last passing rate; between the two it is
// interpolated linearly on the tail latency, so the figure does not jump
// a whole ladder step when the knee moves a little.
func maxRate(rungs []rungStats, limitMS float64) float64 {
	best := 0.0
	for i, r := range rungs {
		if r.pass(limitMS) {
			best = r.rate
			continue
		}
		if i == 0 {
			return 0
		}
		p := rungs[i-1]
		if r.tail > p.tail {
			best = p.rate + (r.rate-p.rate)*(limitMS-p.tail)/(r.tail-p.tail)
		}
		break
	}
	return best
}

// runRung drives one rate open-loop; base is the stream position it
// starts from.
func runRung(ck *checker, cl *client, p rungPlan, rng *rand.Rand, base int, send func(i int) error) ([]sample, int) {
	n := int(p.rate * p.dur.Seconds())
	offs := poissonOffsets(rng, p.rate, n)
	if send == nil {
		send = func(i int) error { return ck.ask(cl, base+i) }
	}
	return openLoop(offs, serviceConns, p.dur+p.dur/2, send), base + n
}

// serviceWorkload runs service-read. The gated figures come from closed
// loops: the recorded campaigns replayed over one connection (latency,
// campaigns per minute, CPU) and both connections kept busy (max_rps).
// The open-loop ladder runs in the traced run; on a shared 2-CPU host
// its tail and knee swung by more than any usable bound between runs.
func serviceWorkload(ctx context.Context, a args, r *report) error {
	var (
		ss  *serviceSetup
		srv *server
	)
	setup, err := timedSetup(3, func() error {
		var err error
		if ss, err = newServiceSetup(a.seed); err != nil {
			return err
		}
		if srv, err = ss.startServer(nil); err != nil {
			return err
		}
		return warm(ss, srv)
	}, func() error { return srv.stop() })
	if err != nil {
		return err
	}
	r.set("setup_s", setup)
	if a.trace {
		err := tracedService(a, r, ss, srv)
		if serr := srv.stop(); err == nil {
			err = serr
		}
		return err
	}
	ck := &checker{ss: ss}
	cl := newClient(srv.url, serviceConns)
	defer cl.close()
	rp := replay(ck, cl, r, a.seconds*3/5)
	maxRPS := saturate(ck, cl, r, a.seconds*2/5)
	if bad := ck.bad.Load(); bad > 0 {
		r.fail("%d wrong answers, first: %s", bad, *ck.firstBad.Load())
	}
	if n := srv.ev.Stats().NSim; n != 0 {
		r.fail("service-read ran %d simulations in its timed phase", n)
	}
	if err := srv.stop(); err != nil {
		return err
	}
	epsMean, epsMax, err := ss.epsilon()
	if err != nil {
		return err
	}
	var nsim, bits float64
	for _, c := range ss.campaigns {
		nsim += float64(c.nsim)
		bits += optim.TotalBits(c.wres)
	}
	nc := float64(len(ss.campaigns))
	r.set("campaigns_per_min", 60*nc/rp.wall.Seconds())
	r.set("cpu_s_per_campaign", rp.cpu.Seconds()/nc)
	r.set("sims_per_campaign", nsim/nc)
	r.set("total_bits", bits/nc)
	r.set("eps_mean_bits", epsMean)
	r.set("eps_max_bits", epsMax)
	r.set("latency_ms_p50", percentile(rp.rtt, 50))
	r.set("latency_ms_p99", percentile(rp.rtt, min(99, tailPercentile(len(rp.rtt)))))
	r.set("max_rps", maxRPS)
	r.set("rss_mb", peakRSSMB())
	r.set("error_pct", 100*float64(r.failed)/float64(max(r.attempted, 1)))
	return nil
}

// warm sends a slice of the stream through a fresh connection so
// connections, the server's scratch pools and the kriging factor cache
// are set up before timing.
func warm(ss *serviceSetup, srv *server) error {
	cl := newClient(srv.url, serviceConns)
	defer cl.close()
	ck := &checker{ss: ss}
	for i := 0; i < min(500, len(ss.stream)); i++ {
		if err := ck.ask(cl, i); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// epsilon measures Eq. 11 ε of the served kriged answers: per recorded
// campaign, a sample of its distinct kriged queries is simulated for
// truth. The answers depend only on the recorded store, not on the
// stream order, so the sample is drawn with the simulator's seed and ε
// is the same for every workload seed. It returns the mean ε over all
// samples and the median over campaigns of each campaign's max.
func (ss *serviceSetup) epsilon() (meanEps, maxEps float64, err error) {
	var all, maxes []float64
	for ci, c := range ss.campaigns {
		var kriged []answer
		seen := make(map[string]bool)
		for _, q := range c.queries {
			k := q.Key()
			if e, ok := ss.expect[k]; ok && e.source == evaluator.Interpolated.String() && !seen[k] {
				seen[k] = true
				kriged = append(kriged, answer{cfg: q, lambda: e.lambda})
			}
		}
		rng := rand.New(rand.NewSource(int64(ss.simSeed)*131 + int64(ci)))
		rng.Shuffle(len(kriged), func(i, j int) { kriged[i], kriged[j] = kriged[j], kriged[i] })
		var m float64
		for _, q := range kriged[:min(epsPerRecorded, len(kriged))] {
			truth, err := ss.sim.Evaluate(q.cfg)
			if err != nil {
				return 0, 0, err
			}
			e := metrics.EpsilonBits(-q.lambda, -truth)
			all = append(all, e)
			m = math.Max(m, e)
		}
		maxes = append(maxes, m)
	}
	return mean(all), median(maxes), nil
}

// tracedService is service-read's traced run: the nominal rate once
// against the untraced server and once against a server whose kriging
// layer is decorated, with each request's spans (due time → reply, HTTP
// round trip, server-side kriging) joined by configuration; then the
// stream straight through Engine.Evaluate, untimed and traced, to
// separate HTTP from the evaluator.
func tracedService(a args, r *report, ss *serviceSetup, srv *server) error {
	ck := &checker{ss: ss}
	rng := rand.New(rand.NewSource(int64(a.seed) + 1))
	plan := rungPlan{nominalRate, a.seconds * 2 / 5}

	// Untraced reference at the nominal rate.
	cl := newClient(srv.url, serviceConns)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	samples, pos := runRung(ck, cl, plan, rng, 0, nil)
	runtime.ReadMemStats(&m1)
	cl.close()
	ref := summarise(plan.rate, samples, latencyLimit)
	var rtts []float64
	for _, s := range samples {
		if s.start >= 0 && !s.err {
			rtts = append(rtts, float64(s.done-s.start)/1e3)
		}
	}
	r.attempted += ref.n + ref.unsent
	r.set("loadgen.latency_ms_p50", ref.p50)
	r.set("loadgen.latency_ms_p99", ref.tail)
	climb := []rungStats{ref}
	for _, rate := range ladderRates {
		cl := newClient(srv.url, serviceConns)
		var rs []sample
		rs, pos = runRung(ck, cl, rungPlan{rate, a.seconds / 20}, rng, pos, nil)
		cl.close()
		st := summarise(rate, rs, latencyLimit)
		r.attempted += st.n + st.unsent
		fmt.Printf("  %6.0f req/s: n=%d p50=%.3fms p%g=%.3fms backlog=%v\n", rate, st.n, st.p50, st.tailPct, st.tail, st.backlog)
		climb = append(climb, st)
		if !st.pass(latencyLimit) {
			break
		}
	}
	r.set("loadgen.max_rps", maxRate(climb, latencyLimit))
	sent := float64(ref.n)
	r.set("httpapi.rtt_us_p50", percentile(rtts, 50))
	r.set("httpapi.bytes_per_req", float64(cl.bytesSent.Load())/sent)
	r.set("loadgen.lag_ms_p99", ref.lagP99)
	r.set("loadgen.sent", sent)
	r.set("runtime.alloc_kb_per_query", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/sent)

	// Traced pass against a decorated server.
	tr, kc := newTracer(), newInterpCounts()
	srvT, err := ss.startServer(newTracedInterp(&kriging.Ordinary{}, tr, kc))
	if err != nil {
		return err
	}
	defer srvT.stop()
	if err := warm(ss, srvT); err != nil {
		return err
	}
	ss0 := srvT.ev.Stats()
	clT := newClient(srvT.url, serviceConns)
	roots := make([]int32, int(plan.rate*plan.dur.Seconds()))
	traced, _ := runRung(ck, clT, plan, rng, pos, func(i int) error {
		k := ss.stream[(pos+i)%len(ss.stream)]
		key := store.HashConfig(ss.configs[k])
		roots[i] = tr.begin("loadgen.request", -1, int64(i)+1)
		rtt := tr.begin("httpapi.rtt", roots[i], int64(i)+1)
		tr.key(rtt, key)
		err := ck.askKey(clT, k)
		tr.endKeyed(rtt, key)
		tr.end(roots[i])
		return err
	})
	clT.close()
	// A request's root span starts when it was due, not when a
	// connection took it, matching the untraced latency.
	for i, s := range traced {
		if s.start >= 0 {
			tr.backdate(roots[i], s.start-s.due)
		}
	}
	tracedStats := summarise(plan.rate, traced, latencyLimit)
	r.attempted += tracedStats.n + tracedStats.unsent
	st := srvT.ev.Stats()
	answers := float64(tracedStats.n)
	nInterp := float64(st.NInterp - ss0.NInterp)
	r.set("evaluator.exact_pct", 100*(answers-nInterp-float64(st.NSim-ss0.NSim))/answers)
	r.set("evaluator.interp_pct", 100*nInterp/answers)
	r.set("evaluator.mean_support", st.MeanNeighbors())
	r.set("evaluator.coalesced", float64(st.NCoalesced))
	r.set("evaluator.shed", float64(st.NShed))
	r.set("evaluator.queue_expired", float64(st.NQueueExpired))
	if st.NSim != 0 {
		r.fail("service-read ran %d simulations", st.NSim)
	}
	r.set("trace.overhead_pct", 100*(tracedStats.p50/ref.p50-1))

	// The stream straight through Engine.Evaluate: untraced for the
	// HTTP overhead, then traced for the evaluator's self time.
	n := min(len(ss.stream), int(sent))
	var direct []float64
	eng := srv.ev.Engine(0)
	for i := 0; i < n; i++ {
		t := time.Now()
		if _, err := eng.Evaluate(context.Background(), ss.configs[ss.stream[i]]); err != nil {
			return err
		}
		direct = append(direct, float64(time.Since(t))/1e3)
	}
	r.set("httpapi.overhead_us", r.values["httpapi.rtt_us_p50"]-percentile(direct, 50))
	engT := srvT.ev.Engine(0)
	var directNS float64
	for i := 0; i < n; i++ {
		t := time.Now()
		tr.push("evaluator.query", int64(i)+1)
		_, err := engT.Evaluate(context.Background(), ss.configs[ss.stream[i]])
		tr.pop()
		directNS += float64(time.Since(t))
		if err != nil {
			return err
		}
	}
	spans := tr.snapshot()
	if err := writeSpans(filepath.Join(a.workdir, a.workload+".spans.csv"), spans); err != nil {
		return err
	}
	lt := layerTotals(spans)
	var allSelf float64
	for _, t := range lt {
		allSelf += t.self
	}
	var reqNS float64
	for _, s := range traced {
		if s.start >= 0 {
			reqNS += float64(s.latency())
		}
	}
	q := lt["evaluator.query"]
	r.set("evaluator.self_us_per_query", q.self/float64(q.n)/1e3)
	setKriging(r, lt, kc)
	st0 := srv.ev.Store()
	var lookup, near float64
	var nb store.Neighborhood
	start := time.Now()
	for i := 0; i < n; i++ {
		st0.Lookup(ss.configs[ss.stream[i]])
	}
	lookup = float64(time.Since(start)) / float64(n)
	start = time.Now()
	for i := 0; i < n; i++ {
		st0.NearestKInto(&nb, ss.configs[ss.stream[i]], 3, 10)
	}
	near = float64(time.Since(start)) / float64(n)
	r.set("store.us_per_lookup", lookup/1e3)
	r.set("store.us_per_nearestk", near/1e3)
	r.set("store.len", float64(st0.Len()))
	r.set("trace.self_sum_pct", 100*allSelf/(reqNS+directNS))
	if d := r.values["trace.self_sum_pct"]; d < 95 || d > 105 {
		r.fail("per-layer self times sum to %.1f%% of request time", d)
	}
	r.set("error_pct", 100*float64(r.failed)/float64(max(r.attempted, 1)))
	return nil
}

// replayed is the closed-loop replay's outcome: each request's fastest
// round trip (ms) and the campaigns' summed fastest-chunk times.
type replayed struct {
	rtt       []float64
	wall, cpu time.Duration
}

// replay sends the recorded campaigns' queries one after another over
// one connection, campaign by campaign, in cycles until budget is used
// (at least two). Every cycle sends the same requests, so each request
// and each chunk of replayChunk requests keeps its fastest cycle, with
// times normalized to the machine speed probed around the chunk.
func replay(ck *checker, cl *client, r *report, budget time.Duration) replayed {
	var rtt []float64
	var wall, cpu []time.Duration
	start := time.Now()
	for cycle := 0; cycle < 2 || time.Since(start) < budget; cycle++ {
		req, chunk := 0, 0
		for _, c := range ck.ss.campaigns {
			for lo := 0; lo < len(c.keys); lo += replayChunk {
				keys := c.keys[lo:min(lo+replayChunk, len(c.keys))]
				ds := make([]time.Duration, len(keys))
				p0 := probe()
				t0, c0 := time.Now(), cpuTime()
				for i, k := range keys {
					r.attempted++
					q0 := time.Now()
					if err := ck.askKey(cl, k); err != nil {
						r.fail("replay of %s: %v", c.name, err)
					}
					ds[i] = time.Since(q0)
				}
				w, u := time.Since(t0), cpuTime()-c0
				scale := speedScale(p0, probe())
				w, u = scaled(w, scale), scaled(u, scale)
				for _, d := range ds {
					d := ms(scaled(d, scale))
					if cycle == 0 {
						rtt = append(rtt, d)
					} else {
						rtt[req] = min(rtt[req], d)
					}
					req++
				}
				if cycle == 0 {
					wall, cpu = append(wall, w), append(cpu, u)
				} else {
					wall[chunk], cpu[chunk] = min(wall[chunk], w), min(cpu[chunk], u)
				}
				chunk++
			}
		}
	}
	out := replayed{rtt: rtt}
	for i := range wall {
		out.wall += wall[i]
		out.cpu += cpu[i]
	}
	return out
}

// saturate keeps every connection busy with back-to-back stream
// requests, in 16 windows that share budget, and returns the best
// speed-normalized throughput (req/s) of a window. The machine's speed
// is probed between windows, while the connections are idle.
func saturate(ck *checker, cl *client, r *report, budget time.Duration) float64 {
	var next, done, failed atomic.Int64
	var best float64
	for w := 0; w < 16; w++ {
		p0 := probe()
		before := done.Load()
		start := time.Now()
		stop := start.Add(budget / 16)
		var wg sync.WaitGroup
		for c := 0; c < serviceConns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(stop) {
					if err := ck.ask(cl, int(next.Add(1)-1)); err != nil {
						failed.Add(1)
					}
					done.Add(1)
				}
			}()
		}
		wg.Wait()
		rate := float64(done.Load()-before) / time.Since(start).Seconds()
		best = max(best, rate/speedScale(p0, probe()))
	}
	r.attempted += int(done.Load())
	if n := failed.Load(); n > 0 {
		r.fail("%d of %d requests failed with both connections busy", n, done.Load())
	}
	return best
}

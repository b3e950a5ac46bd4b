package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/evaluator"
	"repro/internal/kriging"
	"repro/internal/metrics"
	"repro/internal/optim"
	"repro/internal/simpool"
	"repro/internal/space"
	"repro/internal/store"
)

// The campaign mix is fixed; the workload seed draws each campaign's
// simulator seed, and the constraints cycle through a small set around
// the paper's -40 dB so every block of campaigns covers each
// (benchmark, constraint) pair once. Stratifying the constraints keeps a
// run's averages from depending on which constraints the seed happened
// to draw.
var (
	campaignMix   = []string{"iir", "fft", "hevc"}
	constraintsDB = []float64{-35, -40, -45}
	blockSize     = len(campaignMix) * len(constraintsDB)
)

// epsSample bounds the kriged answers re-simulated per campaign for ε.
// Re-simulating every kriged answer costs ~2000 hevc simulations per
// campaign, so ε is measured on a seeded sample of distinct kriged
// answers instead.
const epsSample = 96

// wloptOptions are cmd/wlopt's evaluator settings: D=3, NnMin=1,
// MaxSupport=10, kriging in the dB domain.
func wloptOptions() evaluator.Options {
	return evaluator.Options{
		D: 3, NnMin: 1, MaxSupport: 10,
		Transform: evaluator.NegPowerToDB, Untransform: evaluator.DBToNegPower,
	}
}

// campaignMode selects the oracle path and simulation tier.
type campaignMode struct {
	workers int  // Evaluator.Oracle(workers)
	durable bool // fresh Options.StateDir per campaign
	remote  bool // simulate through a simpool.Pool
}

var (
	modeSeq    = campaignMode{workers: 1}
	modeBatch  = campaignMode{workers: 2, durable: true}
	modeRemote = campaignMode{workers: 2, remote: true}
)

// job is one campaign: min+1 on one benchmark under one constraint.
type job struct {
	idx      int
	bench    string
	spec     *bench.Spec
	simSeed  uint64
	lambdaDB float64
	sim      evaluator.Simulator
	truth    map[string]float64 // memoised re-simulations
}

func (j *job) lambdaMin() float64 { return -math.Pow(10, j.lambdaDB/10) }

// trueLambda re-simulates cfg on the in-process simulator, memoised.
func (j *job) trueLambda(cfg space.Config) (float64, error) {
	k := cfg.Key()
	if v, ok := j.truth[k]; ok {
		return v, nil
	}
	v, err := j.sim.Evaluate(cfg)
	if err != nil {
		return 0, err
	}
	j.truth[k] = v
	return v, nil
}

// jobSource draws the deterministic campaign sequence of one seed.
type jobSource struct {
	rng   *rand.Rand
	specs map[string]*bench.Spec
	next  int
}

func newJobSource(seed uint64) (*jobSource, error) {
	js := &jobSource{rng: rand.New(rand.NewSource(int64(seed))), specs: make(map[string]*bench.Spec)}
	for _, name := range campaignMix {
		sp, err := bench.SpecByName(name, bench.Small)
		if err != nil {
			return nil, err
		}
		js.specs[name] = sp
	}
	return js, nil
}

// block builds the next blockSize jobs, simulators included.
func (js *jobSource) block() ([]*job, error) {
	out := make([]*job, 0, blockSize)
	for _, db := range constraintsDB {
		for _, name := range campaignMix {
			j := &job{
				idx: js.next, bench: name, spec: js.specs[name],
				simSeed: uint64(js.rng.Int63n(1_000_000)) + 1, lambdaDB: db,
				truth: make(map[string]float64),
			}
			js.next++
			sim, err := j.spec.NewSimulator(j.simSeed)
			if err != nil {
				return nil, err
			}
			j.sim = sim
			out = append(out, j)
		}
	}
	return out, nil
}

// outcome is what one campaign produced.
type outcome struct {
	job      *job
	wall     time.Duration
	cpu      time.Duration
	scale    float64 // machine-speed factor of this campaign (see speed.go)
	wres     space.Config
	lambda   float64
	stats    evaluator.Stats
	calls    []time.Duration
	batches  int
	queries  int
	exact    []answer // answers the final store backs (simulated or hits)
	kriged   []answer // answers not backed by the final store
	storeLen int
	walBytes int64
	lookupNS float64 // store re-issue timings (traced runs)
	nearNS   float64
}

// campaignEnv holds what campaigns of one run share: the scratch root
// and, for remote-sim, the two in-process simulator workers.
type campaignEnv struct {
	mode    campaignMode
	tmpRoot string
	workers []*remoteWorker
	pools   []simpool.Stats
}

// remoteWorker is an in-process simd: a simpool.Worker with capacity 1 on
// a loopback listener. Its simulator is switched to each campaign's
// before the campaign starts (campaigns run one at a time), so two
// listeners serve every campaign of the run. In traced passes it records
// a span per simulation, parented on the pool call for the same
// configuration.
type remoteWorker struct {
	cur    atomic.Pointer[evaluator.Simulator]
	tr     atomic.Pointer[tracer]
	url    string
	cancel context.CancelFunc
	done   chan error
}

func (w *remoteWorker) Nv() int {
	if s := w.cur.Load(); s != nil {
		return (*s).Nv()
	}
	return 0
}

func (w *remoteWorker) Evaluate(cfg space.Config) (float64, error) {
	sim := *w.cur.Load()
	tr := w.tr.Load()
	id := tr.child("sim."+benchName(sim.Nv()), cfg)
	lam, err := sim.Evaluate(cfg)
	tr.end(id)
	return lam, err
}

// start serves w on a loopback listener until stop.
func (w *remoteWorker) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	w.url, w.cancel, w.done = "http://"+ln.Addr().String(), cancel, make(chan error, 1)
	wk := simpool.NewWorker(simpool.WorkerOptions{Sim: w, Capacity: 1})
	go func() { w.done <- wk.ServeListener(ctx, ln, time.Second) }()
	return nil
}

func (w *remoteWorker) stop() error {
	w.cancel()
	return <-w.done
}

func newCampaignEnv(mode campaignMode, workdir string) (*campaignEnv, error) {
	env := &campaignEnv{mode: mode, tmpRoot: workdir}
	if !mode.remote {
		return env, nil
	}
	for i := 0; i < 2; i++ {
		rw := &remoteWorker{}
		if err := rw.start(); err != nil {
			env.close()
			return nil, err
		}
		env.workers = append(env.workers, rw)
	}
	return env, nil
}

func (env *campaignEnv) close() error {
	var first error
	for _, w := range env.workers {
		if err := w.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// benchName maps a mix benchmark's dimensionality back to its name (the
// three mix benchmarks have distinct Nv).
func benchName(nv int) string {
	switch nv {
	case 5:
		return "iir"
	case 10:
		return "fft"
	default:
		return "hevc"
	}
}

// runOpts tweaks one pass of campaigns.
type runOpts struct {
	tr      *tracer
	kc      *interpCounts
	noKrig  bool // D=0: interpolation off (Eq. 2 cross-check)
	keep    bool // keep answers for checks and ε
	reissue bool // time the answer stream against the final store
}

// runCampaign runs one min+1 campaign. Only the campaign itself — from
// opening the evaluator to closing it — is timed; classifying the
// answers and tidying the state directory happen after the clock stops.
func (env *campaignEnv) runCampaign(ctx context.Context, j *job, ro runOpts) (outcome, error) {
	out := outcome{job: j}
	opts := wloptOptions()
	if ro.noKrig {
		opts = evaluator.Options{}
	}
	var sim evaluator.Simulator = j.sim
	var pool *simpool.Pool
	if env.mode.durable {
		dir, err := os.MkdirTemp(env.tmpRoot, "state-")
		if err != nil {
			return out, err
		}
		defer os.RemoveAll(dir)
		opts.StateDir = dir
	}
	tr := ro.tr
	for _, w := range env.workers {
		w.cur.Store(&j.sim)
		w.tr.Store(tr)
	}
	if tr != nil && opts.D > 0 {
		opts.Interp = newTracedInterp(&kriging.Ordinary{}, tr, ro.kc)
	}

	p0 := probe()
	cpu0 := cpuTime()
	start := time.Now()
	tr.push("campaign", int64(j.idx)+1)
	if env.mode.remote {
		specs := make([]simpool.WorkerSpec, len(env.workers))
		for i, w := range env.workers {
			specs[i] = simpool.WorkerSpec{URL: w.url}
		}
		p, err := simpool.NewPool(simpool.Options{
			Workers: specs, Nv: j.spec.Nv, PerWorkerCap: 1,
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		if err != nil {
			tr.pop()
			return out, err
		}
		pool = p
		sim = p
	}
	if tr != nil {
		if env.mode.remote {
			sim = &tracedSim{inner: sim, name: "simpool.call", tr: tr, keyed: true}
		} else {
			sim = &tracedSim{inner: sim, name: "sim." + j.bench, tr: tr}
		}
	}
	openID := tr.child("evaluator.open", nil)
	ev, err := evaluator.New(sim, opts)
	tr.end(openID)
	if err != nil {
		tr.pop()
		if pool != nil {
			pool.Close()
		}
		return out, err
	}
	oracle := &recordingOracle{inner: ev.Oracle(env.mode.workers), tr: tr}
	res, runErr := optim.MinPlusOne(ctx, oracle, optim.MinPlusOneOptions{LambdaMin: j.lambdaMin(), Bounds: j.spec.Bounds})
	out.stats = ev.Stats()
	closeID := tr.child("evaluator.close", nil)
	closeErr := ev.Close()
	if pool != nil {
		env.pools = append(env.pools, pool.Stats())
		pool.Close()
	}
	tr.end(closeID)
	tr.pop()
	out.wall = time.Since(start)
	out.cpu = cpuTime() - cpu0
	out.scale = speedScale(p0, probe())
	if runErr != nil {
		return out, fmt.Errorf("campaign %d (%s %v dB): %w", j.idx, j.bench, j.lambdaDB, runErr)
	}
	if closeErr != nil {
		return out, fmt.Errorf("campaign %d: closing state: %w", j.idx, closeErr)
	}

	out.wres, out.lambda = res.WRes, res.Lambda
	out.calls, out.batches, out.queries = oracle.calls, oracle.batches, len(oracle.answers)
	out.storeLen = ev.Store().Len()
	st := ev.Store()
	for _, a := range oracle.answers {
		if v, ok := st.Lookup(a.cfg); ok && v == a.lambda {
			out.exact = append(out.exact, a)
		} else {
			out.kriged = append(out.kriged, a)
		}
	}
	if ro.reissue {
		out.lookupNS, out.nearNS = reissue(st, oracle.answers, opts)
	}
	if env.mode.durable {
		out.walBytes = dirBytes(opts.StateDir)
	}
	if !ro.keep {
		out.exact, out.kriged = nil, nil
	}
	return out, nil
}

// reissue replays the answers' configurations against a final store's
// exact lookup and capped neighbour search, returning the mean ns per
// call of each.
func reissue(st *store.Store, answers []answer, opts evaluator.Options) (lookupNS, nearNS float64) {
	if len(answers) == 0 {
		return 0, 0
	}
	start := time.Now()
	for _, a := range answers {
		st.Lookup(a.cfg)
	}
	lookupNS = float64(time.Since(start)) / float64(len(answers))
	var nb store.Neighborhood
	start = time.Now()
	for _, a := range answers {
		st.NearestKInto(&nb, a.cfg, opts.D, opts.MaxSupport)
	}
	nearNS = float64(time.Since(start)) / float64(len(answers))
	return lookupNS, nearNS
}

func dirBytes(dir string) int64 {
	var n int64
	// The walk's callback never fails: an unreadable entry only goes
	// uncounted.
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// quality holds the untimed checks and ε of a set of campaigns.
type quality struct {
	eps        []float64 // every sampled kriged answer
	epsMax     float64   // median over campaigns of the campaign's max ε
	infeasible int
	campaigns  int
}

// assess re-simulates each campaign's solution and a seeded sample of
// its kriged answers (memoised per job) for feasibility and Eq. 11 ε.
// With checkExact it also re-simulates every store-backed answer and
// fails on any λ that differs from the in-process simulator's — the
// bit-exactness check for remotely simulated values.
func assess(outs []outcome, seed uint64, checkExact bool) (quality, error) {
	var q quality
	var maxes []float64
	for _, o := range outs {
		j := o.job
		truth, err := j.trueLambda(o.wres)
		if err != nil {
			return q, err
		}
		if truth < j.lambdaMin() {
			q.infeasible++
		}
		for _, a := range o.exact {
			if !checkExact {
				break
			}
			v, err := j.trueLambda(a.cfg)
			if err != nil {
				return q, err
			}
			if v != a.lambda {
				return q, fmt.Errorf("%w: campaign %d: store-backed answer for %v is %v, in-process simulator says %v", errCheck, j.idx, a.cfg, a.lambda, v)
			}
		}
		var campMax float64
		for _, a := range sampleKriged(o.kriged, seed, j.idx) {
			v, err := j.trueLambda(a.cfg)
			if err != nil {
				return q, err
			}
			e := metrics.EpsilonBits(-a.lambda, -v)
			q.eps = append(q.eps, e)
			campMax = math.Max(campMax, e)
		}
		maxes = append(maxes, campMax)
		q.campaigns++
	}
	q.epsMax = median(maxes)
	return q, nil
}

// sampleKriged picks up to epsSample distinct kriged answers, seeded by
// the workload seed and the campaign index.
func sampleKriged(kriged []answer, seed uint64, idx int) []answer {
	seen := make(map[string]bool)
	var distinct []answer
	for _, a := range kriged {
		if k := a.cfg.Key(); !seen[k] {
			seen[k] = true
			distinct = append(distinct, a)
		}
	}
	if len(distinct) <= epsSample {
		return distinct
	}
	rng := rand.New(rand.NewSource(int64(seed)*7919 + int64(idx)))
	rng.Shuffle(len(distinct), func(a, b int) { distinct[a], distinct[b] = distinct[b], distinct[a] })
	return distinct[:epsSample]
}

var errCheck = errors.New("output check failed")

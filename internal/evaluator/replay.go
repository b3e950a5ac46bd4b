package evaluator

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/space"
	"repro/internal/store"
)

// TracePoint is one step of a recorded optimisation trajectory: the
// configuration the optimiser asked about, in order, with the true
// (simulation-measured) metric value.
type TracePoint struct {
	Config space.Config
	Lambda float64
}

// Trace is a recorded trajectory. The paper's Table I protocol: "the
// optimization algorithm has been launched on the exhaustive input data
// set I to get the real metric values for each tested configuration...
// The points have been recorded in the order in which they have to be
// measured, for comparison with the results obtained by kriging."
type Trace []TracePoint

// Entries converts the trajectory to store entries in trace order, the
// form consumed by the store's bulk-write path (store.AddBatch) and by
// Evaluator.Preload. Configurations are not cloned — the store clones on
// insert.
func (t Trace) Entries() []store.Entry {
	out := make([]store.Entry, len(t))
	for i, tp := range t {
		out[i] = store.Entry{Config: tp.Config, Lambda: tp.Lambda}
	}
	return out
}

// ErrorKind selects how the interpolation error ε of a replay is
// expressed: equivalent bits (Eq. 11, noise-power metrics with λ = -P) or
// relative difference (Eq. 12, any other metric).
type ErrorKind int

// Error kinds.
const (
	// ErrorBits interprets λ as -P (noise power) and reports
	// ε = |log2(P̂/P)| (Eq. 11).
	ErrorBits ErrorKind = iota
	// ErrorRelative reports ε = |λ̂-λ|/|λ| (Eq. 12).
	ErrorRelative
)

// String returns the kind name.
func (k ErrorKind) String() string {
	if k == ErrorRelative {
		return "relative"
	}
	return "bits"
}

// ReplayMode selects how the replay measures each interpolation; the
// decisions are the live evaluator's in every mode.
type ReplayMode int

// Replay modes.
const (
	// ModePaper reproduces the paper's Table I protocol: the
	// simulate-or-interpolate decision is the live evaluator's (a point
	// is interpolated when strictly more than Nn,min *previously
	// simulated* points lie within d), but the error measurement kriges
	// each interpolated point from ALL other recorded configurations
	// within d, using their true metric values — an offline "could this
	// point have been inferred from its neighbourhood" study.
	//
	// This is the only reading consistent with the paper's reported
	// (p%, j̄) pairs: at d = 2 the FIR trajectory interpolates exactly
	// every third point (p = 33.33%) while j̄ = 3.78 ≈ the ±2
	// neighbourhood size of a trajectory walk, and j̄ grows to 8.61 ≈
	// the ±5 neighbourhood at d = 5 — support sets that sequential
	// simulated-only neighbourhoods cannot produce.
	ModePaper ReplayMode = iota
	// ModeFinalSim kriges each interpolated point from the final
	// simulated set (the configurations the accelerated run would truly
	// have simulated), both earlier and later in the trace.
	ModeFinalSim
	// ModeLive measures the live evaluator's own answers, kriged from
	// the points simulated *before* the query. The frontier points of a
	// phase-1 descent then extrapolate, which is measurably worse; the
	// ablation benches quantify the gap.
	ModeLive
)

// String returns the mode name.
func (m ReplayMode) String() string {
	switch m {
	case ModeFinalSim:
		return "finalsim"
	case ModeLive:
		return "live"
	default:
		return "paper"
	}
}

// ReplayRow is one Table I row: the statistics of replaying one recorded
// trajectory with one distance d.
type ReplayRow struct {
	D           float64 // neighbourhood radius
	N           int     // trajectory length
	NInterp     int     // configurations interpolated
	NSim        int     // configurations simulated
	Percent     float64 // p(%)
	MeanNeigh   float64 // j̄
	MaxEps      float64 // max ε
	MeanEps     float64 // µ ε
	EpsInfCount int     // interpolations whose ε was unbounded (P̂<=0)
	ErrKind     ErrorKind
	Decisions   int // evaluations downstream code would base decisions on
	// KrigFailures is Stats.NKrigFallback (failed systems the evaluator
	// then simulated) plus the measurement pass's failed systems.
	KrigFailures int
}

// Replay feeds a recorded trajectory, in trace order, through Evaluate
// of an in-memory Evaluator and measures the interpolation error of every
// kriged point against the recorded truth. No simulator runs: "simulated"
// points take their value from the trace, reproducing the paper's
// measurement protocol.
func Replay(trace Trace, opts Options, kind ErrorKind) (ReplayRow, error) {
	return ReplayModed(trace, opts, kind, ModePaper)
}

// ReplayModed is Replay with an explicit support mode; see ReplayMode.
// The counts come from the evaluator's Stats. ModePaper and ModeFinalSim
// re-krige each kriged point in a measurement pass, and only ModePaper
// bulk-loads a store of its own. opts.StateDir is ignored.
func ReplayModed(trace Trace, opts Options, kind ErrorKind, mode ReplayMode) (ReplayRow, error) {
	if mode < ModePaper || mode > ModeLive {
		return ReplayRow{}, fmt.Errorf("evaluator: unknown replay mode %d", mode)
	}
	// Deduplicate: a revisited configuration is a free exact lookup, not
	// a new tested configuration in the paper's percentages.
	truth := make(map[string]float64, len(trace))
	var pts Trace
	var nv int
	for _, tp := range trace {
		key := tp.Config.Key()
		if _, ok := truth[key]; ok {
			continue
		}
		truth[key] = tp.Lambda
		pts = append(pts, tp)
		nv = len(tp.Config)
	}
	opts.StateDir = ""
	ev, err := New(SimulatorFunc{NumVars: nv, Fn: func(c space.Config) (float64, error) {
		return truth[c.Key()], nil
	}}, opts)
	if err != nil {
		return ReplayRow{}, err
	}

	var eps metrics.Summary
	var kriged Trace
	for _, tp := range pts {
		res, err := ev.Evaluate(tp.Config)
		if err != nil {
			return ReplayRow{}, err
		}
		if res.Source != Interpolated {
			continue
		}
		if mode == ModeLive {
			eps.Add(epsilon(kind, res.Lambda, tp.Lambda))
		} else {
			kriged = append(kriged, tp)
		}
	}
	st := ev.Stats()
	row := ReplayRow{
		D: opts.D, ErrKind: kind, N: len(pts), Decisions: len(pts),
		NInterp: st.NInterp, NSim: st.NSim, KrigFailures: st.NKrigFallback,
		Percent: st.PercentInterpolated(),
	}
	sumNeigh := st.SumNeigh

	if mode != ModeLive {
		// Kriged with the gates waived. ModePaper's support is all other
		// recorded points within d: the points are deduplicated, so
		// dropping zero distances removes exactly the query, which the
		// final store of ModeFinalSim never holds.
		support := ev.Store()
		if mode == ModePaper {
			support = store.New()
			support.AddBatch(pts.Entries())
		}
		var qs queryScratch
		sumNeigh = 0
		for _, tp := range kriged {
			nb := support.Neighbors(tp.Config, opts.D).WithoutZeroDistance()
			res := ev.krigeOne(nb.NearestK(opts.MaxSupport), tp.Config, nil, &qs)
			if res.Source != Interpolated {
				row.KrigFailures++
				continue
			}
			sumNeigh += res.Neighbors
			eps.Add(epsilon(kind, res.Lambda, tp.Lambda))
		}
	}
	if row.NInterp > 0 {
		row.MeanNeigh = float64(sumNeigh) / float64(row.NInterp)
	}
	row.MaxEps = eps.Max()
	row.MeanEps = eps.Mean()
	row.EpsInfCount = eps.InfCount()
	return row, nil
}

func epsilon(kind ErrorKind, lambdaHat, lambda float64) float64 {
	switch kind {
	case ErrorBits:
		// λ = -P for the noise-power benchmarks.
		return metrics.EpsilonBits(-lambdaHat, -lambda)
	case ErrorRelative:
		return metrics.EpsilonRelative(lambdaHat, lambda)
	default:
		panic("evaluator: unknown error kind")
	}
}

// RecordingSimulator wraps a Simulator and records every evaluation into
// a Trace, the tool used to capture the simulation-only trajectory before
// a Replay.
type RecordingSimulator struct {
	Inner Simulator
	Trace Trace
}

// Evaluate implements Simulator.
func (r *RecordingSimulator) Evaluate(cfg space.Config) (float64, error) {
	lam, err := r.Inner.Evaluate(cfg)
	if err != nil {
		return 0, err
	}
	r.Trace = append(r.Trace, TracePoint{Config: cfg.Clone(), Lambda: lam})
	return lam, nil
}

// Nv implements Simulator.
func (r *RecordingSimulator) Nv() int { return r.Inner.Nv() }

// CachingSimulator wraps a Simulator and memoises results by exact
// configuration, so that recording a trajectory does not re-simulate
// configurations the optimiser revisits.
type CachingSimulator struct {
	Inner Simulator
	cache map[string]float64
}

// NewCachingSimulator wraps sim with a memo table.
func NewCachingSimulator(sim Simulator) *CachingSimulator {
	return &CachingSimulator{Inner: sim, cache: make(map[string]float64)}
}

// Evaluate implements Simulator.
func (c *CachingSimulator) Evaluate(cfg space.Config) (float64, error) {
	key := cfg.Key()
	if v, ok := c.cache[key]; ok {
		return v, nil
	}
	v, err := c.Inner.Evaluate(cfg)
	if err != nil {
		return 0, err
	}
	c.cache[key] = v
	return v, nil
}

// Nv implements Simulator.
func (c *CachingSimulator) Nv() int { return c.Inner.Nv() }

// Misses returns the number of distinct configurations simulated.
func (c *CachingSimulator) Misses() int { return len(c.cache) }

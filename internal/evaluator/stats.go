package evaluator

import (
	"sync/atomic"
	"time"
)

// Stats aggregates evaluator activity; it backs the p(%) and j̄ columns of
// Table I and the live Eq. 2 time model. Stats is a plain value snapshot;
// obtain a consistent one with Evaluator.Stats.
type Stats struct {
	NSim     int // simulator invocations
	NInterp  int // kriged evaluations
	SumNeigh int // total support points over all interpolations
	// NVarRejected counts interpolations rejected by variance gating.
	NVarRejected int
	// NBatchPredict counts the interpolations served through
	// EvaluateAll's blocked shared-support batch path (always <=
	// NInterp); NBatchPredict/NInterp is the batch-predict hit rate.
	NBatchPredict int
	// NCoalesced counts queries answered by a simulation they did not
	// run: live followers of another request's in-flight simulation, and
	// repeats of a configuration simulated earlier in the same batch.
	// Either would have cost a full simulation without coalescing.
	// Followers are not counted in NSim (the owner's one simulation is),
	// so the total work avoided by coalescing is exactly NCoalesced
	// simulations.
	NCoalesced int
	// SimTime and InterpTime accumulate the per-call durations spent in
	// the simulator and in kriging respectively. Under EvaluateAll the
	// per-call simulator durations are summed across workers, so
	// SimTime/NSim remains the mean cost of ONE simulation — the
	// quantity the Eq. 2 model needs — rather than the wall-clock of the
	// parallel region.
	SimTime, InterpTime time.Duration
	// Overload-resilience counters. NShed counts requests rejected by
	// the engine's deadline-aware admission shedder (typed ErrOverloaded
	// instead of parking on a full semaphore); NQueueExpired counts
	// requests whose context died while actually parked for admission —
	// the waste shedding exists to eliminate (an effective shedder keeps
	// it at zero); NDegraded counts brownout answers served as
	// surrogate-only predictions to opted-in callers. Degraded answers
	// are not part of NInterp/SumNeigh: the paper metrics keep measuring
	// full-quality interpolation only.
	NShed         int
	NQueueExpired int
	NDegraded     int
}

// Total returns the number of evaluated configurations.
func (s Stats) Total() int { return s.NSim + s.NInterp }

// PercentInterpolated returns p(%) = 100·NInterp / Total.
func (s Stats) PercentInterpolated() float64 {
	t := s.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(s.NInterp) / float64(t)
}

// MeanNeighbors returns j̄, the average support size per interpolation.
func (s Stats) MeanNeighbors() float64 {
	if s.NInterp == 0 {
		return 0
	}
	return float64(s.SumNeigh) / float64(s.NInterp)
}

// EstimatedSpeedup evaluates the Eq. 2 time model on the recorded
// activity: the ratio of the simulation-only campaign time (Total
// evaluations at the mean measured simulation cost) to the actual time
// spent (simulations plus interpolations). Both terms are
// sequential-equivalent (summed per-call) times, so under parallel
// evaluation the figure isolates what interpolation saves — simulations
// avoided — independent of how many workers ran; it is NOT a wall-clock
// measurement of a parallel campaign. It returns 0 until at least one
// simulation has run.
func (s Stats) EstimatedSpeedup() float64 {
	if s.NSim == 0 {
		return 0
	}
	meanSim := float64(s.SimTime) / float64(s.NSim)
	simOnly := meanSim * float64(s.Total())
	actual := float64(s.SimTime) + float64(s.InterpTime)
	if actual == 0 {
		return 0
	}
	return simOnly / actual
}

// counters is the evaluator's internal, concurrency-safe accumulator
// behind the Stats snapshot. Every field is updated with atomic
// operations so Evaluate and EvaluateAll can run from many goroutines
// without a lock on the hot path.
type counters struct {
	nSim         atomic.Int64
	nInterp      atomic.Int64
	sumNeigh     atomic.Int64
	nVarRejected atomic.Int64
	nBatchPred   atomic.Int64
	nCoalesced   atomic.Int64
	nShed        atomic.Int64
	nQueueExp    atomic.Int64
	nDegraded    atomic.Int64
	simTime      atomic.Int64 // nanoseconds
	interpTime   atomic.Int64 // nanoseconds
}

// snapshot materialises the counters as a Stats value. Concurrent
// updates make the snapshot approximate while evaluations are in flight;
// it is exact once the caller's evaluations have returned.
func (c *counters) snapshot() Stats {
	return Stats{
		NSim:          int(c.nSim.Load()),
		NInterp:       int(c.nInterp.Load()),
		SumNeigh:      int(c.sumNeigh.Load()),
		NVarRejected:  int(c.nVarRejected.Load()),
		NBatchPredict: int(c.nBatchPred.Load()),
		NCoalesced:    int(c.nCoalesced.Load()),
		NShed:         int(c.nShed.Load()),
		NQueueExpired: int(c.nQueueExp.Load()),
		NDegraded:     int(c.nDegraded.Load()),
		SimTime:       time.Duration(c.simTime.Load()),
		InterpTime:    time.Duration(c.interpTime.Load()),
	}
}

// merge adds another accumulator's totals into c; EvaluateAll commits a
// successful batch's counters this way so a failed batch leaves the
// stats untouched.
func (c *counters) merge(o *counters) {
	c.nSim.Add(o.nSim.Load())
	c.nInterp.Add(o.nInterp.Load())
	c.sumNeigh.Add(o.sumNeigh.Load())
	c.nVarRejected.Add(o.nVarRejected.Load())
	c.nBatchPred.Add(o.nBatchPred.Load())
	c.nCoalesced.Add(o.nCoalesced.Load())
	c.nShed.Add(o.nShed.Load())
	c.nQueueExp.Add(o.nQueueExp.Load())
	c.nDegraded.Add(o.nDegraded.Load())
	c.simTime.Add(o.simTime.Load())
	c.interpTime.Add(o.interpTime.Load())
}

// reset zeroes every counter.
func (c *counters) reset() {
	c.nSim.Store(0)
	c.nInterp.Store(0)
	c.sumNeigh.Store(0)
	c.nVarRejected.Store(0)
	c.nBatchPred.Store(0)
	c.nCoalesced.Store(0)
	c.nShed.Store(0)
	c.nQueueExp.Store(0)
	c.nDegraded.Store(0)
	c.simTime.Store(0)
	c.interpTime.Store(0)
}

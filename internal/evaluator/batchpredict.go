package evaluator

import (
	"context"
	"math"
	"time"

	"repro/internal/fnv1a"
	"repro/internal/space"
	"repro/internal/store"
)

// BatchPredictor is implemented by interpolators that can answer many
// queries sharing one support through a single blocked multi-RHS solve
// (kriging.Ordinary, kriging.Simple and kriging.Universal all qualify).
// Results must be bit-identical to calling Predict once per query — the
// evaluator relies on that to answer a support group through either path
// without changing its answers.
type BatchPredictor interface {
	PredictBatch(xs [][]float64, ys []float64, queries [][]float64, out []float64) error
}

// BatchVariancePredictor is the variance-reporting form of
// BatchPredictor (e.g. kriging.Ordinary). When variance gating is on
// (Options.MaxVariance) a support group takes the blocked path only
// through it, so gating decisions stay identical to per-query
// VariancePredictor calls.
type BatchVariancePredictor interface {
	PredictVarBatch(xs [][]float64, ys []float64, queries [][]float64, outVal, outVar []float64) error
}

// predictGroup is a support group: the batch members whose neighbourhood
// search returned the same points in the same order, so one blocked
// solve answers them all. Inner coordinate slices alias the snapshot's
// stable precomputed coordinates (read-only); ys holds untransformed
// store values.
type predictGroup struct {
	xs   [][]float64
	ys   []float64
	idxs []int       // input positions of the member queries
	qx   [][]float64 // member query points as floats
}

// krige is the one transform → predict → gate → untransform → count step
// behind every kriged answer: it predicts each query of qx from the
// shared support (xs, ys), with ys untransformed, and writes member i's
// answer to out[i]. A group of K > 1 goes through one blocked
// PredictBatch/PredictVarBatch call when the interpolator implements it;
// K = 1, interpolators without the batch interfaces, and the members of
// a blocked solve that failed as a unit take per-query Predict/PredictVar
// calls, which the BatchPredictor contract makes bit-identical.
//
// A member that cannot be answered — degenerate system, or a variance
// above Options.MaxVariance — comes back as the zero Result, whose
// Source is Simulated: it needs a simulation. Activity is charged to
// stats. A nil stats is the brownout mode: the variance gate is waived
// and nothing is counted, so NInterp and SumNeigh stay measures of
// full-quality interpolation.
func (e *Evaluator) krige(xs [][]float64, ys []float64, qx [][]float64, out []Result, stats *counters, qs *queryScratch) {
	start := time.Now()
	if e.opts.Transform != nil {
		qs.ys = qs.ys[:0]
		for _, v := range ys {
			qs.ys = append(qs.ys, e.opts.Transform(v))
		}
		ys = qs.ys
	}
	vp, gated := e.opts.Interp.(VariancePredictor)
	gated = gated && stats != nil && e.opts.MaxVariance > 0
	k := len(qx)
	vals, vars := grow(&qs.vals, k), grow(&qs.vars, k)
	batched := false
	if k > 1 {
		if bvp, ok := e.opts.Interp.(BatchVariancePredictor); ok && gated {
			batched = bvp.PredictVarBatch(xs, ys, qx, vals, vars) == nil
		} else if bp, ok := e.opts.Interp.(BatchPredictor); ok && !gated {
			batched = bp.PredictBatch(xs, ys, qx, vals) == nil
		}
	}
	for i, x := range qx {
		out[i] = Result{}
		if !batched {
			var err error
			if gated {
				vals[i], vars[i], err = vp.PredictVar(xs, ys, x)
			} else {
				vals[i], err = e.opts.Interp.Predict(xs, ys, x)
			}
			if err != nil {
				// A degenerate kriging system falls back to simulation; the
				// paper's flow has no failure path because its supports are
				// well spread, but a robust library must not abort the run.
				continue
			}
		}
		if gated && vars[i] > e.opts.MaxVariance {
			stats.nVarRejected.Add(1)
			continue
		}
		pred := vals[i]
		if e.opts.Untransform != nil {
			pred = e.opts.Untransform(pred)
		}
		out[i] = Result{Lambda: pred, Source: Interpolated, Neighbors: len(xs)}
		if stats != nil {
			stats.nInterp.Add(1)
			stats.sumNeigh.Add(int64(len(xs)))
			if batched {
				stats.nBatchPred.Add(1)
			}
		}
	}
	if stats != nil {
		stats.interpTime.Add(int64(time.Since(start)))
	}
}

// grow resizes *buf to n elements, reallocating only on growth.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// supportKey fingerprints a neighbourhood's ordered coordinates and
// values. Order matters: kriging results are bit-identical only for the
// same support order, and the store's query order is deterministic
// (insertion order, or (distance, sequence) when a k-cap truncates), so
// queries that resolve the same support group together exactly when the
// blocked solve can serve them all.
func supportKey(nb *store.Neighborhood) uint64 {
	h := fnv1a.Mix(fnv1a.Offset, uint64(nb.Len()))
	for _, c := range nb.Coords {
		for _, v := range c {
			h = fnv1a.Mix(h, math.Float64bits(v))
		}
	}
	for _, v := range nb.Values {
		h = fnv1a.Mix(h, math.Float64bits(v))
	}
	return h
}

// sameSupport reports whether the group's support is exactly (order
// included) the neighbourhood's.
func sameSupport(g *predictGroup, nb *store.Neighborhood) bool {
	if len(g.ys) != nb.Len() {
		return false
	}
	for i, v := range g.ys {
		if v != nb.Values[i] {
			return false
		}
	}
	for i, c := range g.xs {
		d := nb.Coords[i]
		if len(c) != len(d) {
			return false
		}
		for j := range c {
			if c[j] != d[j] {
				return false
			}
		}
	}
	return true
}

// batchPredictPrepass is EvaluateAll's classifier: it runs once on the
// caller's goroutine, against the batch snapshot, before the workers
// start. Every query is classified — exact hit (answered on the spot),
// insufficient support (returned in sims, to be simulated), or
// interpolatable, in which case queries whose neighbourhood search
// returned the same support in the same order join one support group.
// The workers then claim whole groups and simulations, so no query's
// lookup or neighbour search runs twice. A min+1/max-1 competition round
// — Nv single-bit perturbations of one incumbent, all kriged from the
// same neighbourhood — collapses from Nv triangular-solve passes to one
// blocked solve; Stats.NBatchPredict counts the queries served that way
// (the batch hit rate is NBatchPredict/NInterp).
//
// A configuration repeated inside the batch is classified once: its
// first occurrence owns the answer, and every later occurrence is
// returned in dups (as {position, owner position}) for EvaluateAll to
// copy the owner's Result into once the workers finish — so a duplicate
// costs no second simulation or kriging solve, whatever the worker
// count. Exact hits need no owner: every occurrence reads the same
// snapshot value.
//
// A dead ctx stops the classification early; the workers observe it
// themselves and the batch is discarded.
func (e *Evaluator) batchPredictPrepass(ctx context.Context, snap storeView, cfgs []space.Config, results []Result) (groups []predictGroup, sims []int, dups [][2]int) {
	qs := e.scratch.Get().(*queryScratch)
	defer e.scratch.Put(qs)
	sims = make([]int, 0, len(cfgs))
	byKey := make(map[uint64][]int)
	owners := make(map[uint64]int, len(cfgs))
	for idx, cfg := range cfgs {
		if ctx.Err() != nil {
			return groups, sims, dups
		}
		if lam, ok := snap.Lookup(cfg); ok {
			results[idx] = Result{Lambda: lam, Source: Simulated}
			continue
		}
		h := store.HashConfig(cfg)
		if owner, ok := owners[h]; !ok {
			owners[h] = idx
		} else if cfgs[owner].Equal(cfg) {
			dups = append(dups, [2]int{idx, owner})
			continue
		}
		support, ok := e.gatherSupport(snap, cfg, qs)
		if !ok {
			sims = append(sims, idx)
			continue
		}
		key := supportKey(support)
		gi := -1
		for _, cand := range byKey[key] {
			if sameSupport(&groups[cand], support) {
				gi = cand
				break
			}
		}
		if gi == -1 {
			// First member: copy the slice headers out of the reused query
			// buffer (the coordinate data itself is snapshot-stable).
			groups = append(groups, predictGroup{
				xs: append([][]float64(nil), support.Coords...),
				ys: append([]float64(nil), support.Values...),
			})
			gi = len(groups) - 1
			byKey[key] = append(byKey[key], gi)
		}
		g := &groups[gi]
		g.idxs = append(g.idxs, idx)
		g.qx = append(g.qx, cfgFloats(make([]float64, 0, len(cfg)), cfg))
	}
	return groups, sims, dups
}

// cfgFloats appends cfg's word-lengths as floats to dst.
func cfgFloats(dst []float64, cfg space.Config) []float64 {
	for _, v := range cfg {
		dst = append(dst, float64(v))
	}
	return dst
}

package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/evaluator"
	"repro/internal/kriging"
	"repro/internal/space"
	"repro/internal/store"
)

// The decorators below wrap each layer's public interface and record a
// span per call on a tracer. They only run in traced runs; untraced runs
// hand the library its undecorated simulator and interpolator.

// tracedSim decorates an evaluator.Simulator (and simpool's
// structurally identical Simulator). It always exposes EvaluateContext,
// forwarding to the inner simulator's when it has one, exactly as the
// evaluator itself would call a plain Simulator.
type tracedSim struct {
	inner evaluator.Simulator
	name  string
	tr    *tracer
	keyed bool // register each call as the parent of callees handling its config
}

func (s *tracedSim) Nv() int { return s.inner.Nv() }

func (s *tracedSim) Evaluate(cfg space.Config) (float64, error) {
	return s.EvaluateContext(context.Background(), cfg)
}

func (s *tracedSim) EvaluateContext(ctx context.Context, cfg space.Config) (float64, error) {
	var id int32
	var key uint64
	if s.keyed {
		key = store.HashConfig(cfg)
		id = s.tr.beginKeyed(s.name, key)
	} else {
		id = s.tr.child(s.name, cfg)
	}
	var (
		lam float64
		err error
	)
	if cs, ok := s.inner.(evaluator.ContextSimulator); ok {
		lam, err = cs.EvaluateContext(ctx, cfg)
	} else {
		lam, err = s.inner.Evaluate(cfg)
	}
	if s.keyed {
		s.tr.endKeyed(id, key)
	} else {
		s.tr.end(id)
	}
	return lam, err
}

// interpCounts are the kriging layer's counters, kept by the traced
// interpolator.
type interpCounts struct {
	predicts, batches, cols, fallbacks atomic.Int64
	mu                                 sync.Mutex
	supports                           map[uint64]struct{}
}

func (c *interpCounts) support(xs [][]float64, ys []float64) {
	h := uint64(fnvOffset)
	for _, x := range xs {
		for _, v := range x {
			h = fnvMix(h, v)
		}
	}
	for _, v := range ys {
		h = fnvMix(h, v)
	}
	c.mu.Lock()
	c.supports[h] = struct{}{}
	c.mu.Unlock()
}

func (c *interpCounts) distinctSupports() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.supports)
}

// tracedInterp decorates a kriging.Interpolator's Predict.
type tracedInterp struct {
	inner kriging.Interpolator
	tr    *tracer
	c     *interpCounts
}

func (k *tracedInterp) Name() string { return k.inner.Name() }

func (k *tracedInterp) Predict(xs [][]float64, ys []float64, x []float64) (float64, error) {
	id := k.tr.child("kriging.predict", floatsConfig(x))
	v, err := k.inner.Predict(xs, ys, x)
	k.tr.end(id)
	k.count(xs, ys, 1, err)
	return v, err
}

func (k *tracedInterp) count(xs [][]float64, ys []float64, cols int, err error) {
	if cols == 1 {
		k.c.predicts.Add(1)
	} else {
		k.c.batches.Add(1)
		k.c.cols.Add(int64(cols))
	}
	if err != nil {
		k.c.fallbacks.Add(1)
	}
	k.c.support(xs, ys)
}

// tracedFullInterp is tracedInterp for interpolators that also offer the
// variance and blocked batch forms. The evaluator finds those by type
// assertion, so a decorator that hid them would silently switch the
// batch path and variance gating off; it forwards all three.
type tracedFullInterp struct{ tracedInterp }

type fullInterp interface {
	kriging.Interpolator
	evaluator.VariancePredictor
	evaluator.BatchPredictor
	evaluator.BatchVariancePredictor
}

func (k *tracedFullInterp) PredictVar(xs [][]float64, ys []float64, x []float64) (float64, float64, error) {
	id := k.tr.child("kriging.predict", floatsConfig(x))
	v, s2, err := k.inner.(fullInterp).PredictVar(xs, ys, x)
	k.tr.end(id)
	k.count(xs, ys, 1, err)
	return v, s2, err
}

func (k *tracedFullInterp) PredictBatch(xs [][]float64, ys []float64, queries [][]float64, out []float64) error {
	id := k.tr.child("kriging.batch", nil)
	err := k.inner.(fullInterp).PredictBatch(xs, ys, queries, out)
	k.tr.end(id)
	k.count(xs, ys, len(queries), err)
	return err
}

func (k *tracedFullInterp) PredictVarBatch(xs [][]float64, ys []float64, queries [][]float64, outVal, outVar []float64) error {
	id := k.tr.child("kriging.batch", nil)
	err := k.inner.(fullInterp).PredictVarBatch(xs, ys, queries, outVal, outVar)
	k.tr.end(id)
	k.count(xs, ys, len(queries), err)
	return err
}

// newTracedInterp wraps inner, keeping exactly the optional interfaces
// inner implements.
func newTracedInterp(inner kriging.Interpolator, tr *tracer, c *interpCounts) kriging.Interpolator {
	t := tracedInterp{inner: inner, tr: tr, c: c}
	if _, ok := inner.(fullInterp); ok {
		return &tracedFullInterp{t}
	}
	return &t
}

func newInterpCounts() *interpCounts {
	return &interpCounts{supports: make(map[uint64]struct{})}
}

// floatsConfig converts an interpolation query point back to the integer
// configuration it was built from.
func floatsConfig(x []float64) space.Config {
	c := make(space.Config, len(x))
	for i, v := range x {
		c[i] = int(v)
	}
	return c
}

// answer is one oracle reply seen by the optimiser.
type answer struct {
	cfg    space.Config
	lambda float64
}

// recordingOracle is the harness's view of the optimiser→evaluator
// boundary: it forwards optim.Oracle and optim.BatchOracle calls to the
// evaluator's oracle, times each call, and keeps every answer so the
// answers can be checked and their ε measured after the timed region.
// With a tracer it also opens one scope span per call.
type recordingOracle struct {
	inner interface {
		Evaluate(ctx context.Context, cfg space.Config) (float64, error)
		EvaluateBatch(ctx context.Context, cfgs []space.Config) ([]float64, error)
	}
	tr      *tracer
	answers []answer
	calls   []time.Duration
	batches int
}

func (o *recordingOracle) Evaluate(ctx context.Context, cfg space.Config) (float64, error) {
	o.tr.push("optim.oracle", 0)
	start := time.Now()
	lam, err := o.inner.Evaluate(ctx, cfg)
	o.calls = append(o.calls, time.Since(start))
	o.tr.pop()
	if err == nil {
		o.answers = append(o.answers, answer{cfg.Clone(), lam})
	}
	return lam, err
}

func (o *recordingOracle) EvaluateBatch(ctx context.Context, cfgs []space.Config) ([]float64, error) {
	o.tr.push("optim.oracle_batch", 0)
	start := time.Now()
	lams, err := o.inner.EvaluateBatch(ctx, cfgs)
	o.calls = append(o.calls, time.Since(start))
	o.tr.pop()
	o.batches++
	if err == nil {
		for i, c := range cfgs {
			o.answers = append(o.answers, answer{c.Clone(), lams[i]})
		}
	}
	return lams, err
}

// FNV-1a over float bit patterns, used to fingerprint kriging supports.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h uint64, v float64) uint64 {
	b := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		h = (h ^ (b & 0xff)) * fnvPrime
		b >>= 8
	}
	return h
}

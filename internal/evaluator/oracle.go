package evaluator

import (
	"context"

	"repro/internal/space"
)

// Oracle adapts the evaluator's unbounded engine to the optimisers'
// oracle interfaces: the returned value implements both optim.Oracle
// (single queries) and optim.BatchOracle (batched queries answered by
// Engine.EvaluateAll on up to workers goroutines; zero or negative
// selects GOMAXPROCS). The min+1 competition hands its Nv independent
// candidates to the batch path, so one greedy round costs one simulation
// latency instead of Nv.
//
// Exactly workers == 1 preserves the classic sequential semantics:
// EvaluateBatch issues the queries one at a time against the live store,
// so a later candidate can krige from (or exactly hit) an earlier
// candidate's fresh simulation, matching the paper's pseudo-code order.
//
// For a shared, admission-bounded oracle, see Engine.Oracle.
func (e *Evaluator) Oracle(workers int) *EvaluatorOracle {
	return &EvaluatorOracle{g: e.eng, workers: workers}
}

// Oracle adapts the engine to the optimisers' oracle interfaces with
// one-at-a-time semantics (Evaluator.Oracle's workers == 1 form): K
// optimiser instances sharing one engine coalesce their colliding
// queries and respect the engine's simulation bound.
func (g *Engine) Oracle() *EvaluatorOracle { return &EvaluatorOracle{g: g, workers: 1} }

// EvaluatorOracle is the oracle adapter returned by Evaluator.Oracle and
// Engine.Oracle.
type EvaluatorOracle struct {
	g       *Engine
	workers int
}

// Evaluate answers one query through the engine, discarding the
// provenance information.
func (o *EvaluatorOracle) Evaluate(ctx context.Context, cfg space.Config) (float64, error) {
	res, err := o.g.Evaluate(ctx, cfg)
	if err != nil {
		return 0, err
	}
	return res.Lambda, nil
}

// EvaluateBatch answers a batch of independent queries, indexed like
// cfgs: one at a time through Evaluate when workers == 1, through
// Engine.EvaluateAll's snapshot-batch semantics otherwise.
func (o *EvaluatorOracle) EvaluateBatch(ctx context.Context, cfgs []space.Config) ([]float64, error) {
	if o.workers == 1 {
		lams := make([]float64, len(cfgs))
		for i, c := range cfgs {
			lam, err := o.Evaluate(ctx, c)
			if err != nil {
				return nil, err
			}
			lams[i] = lam
		}
		return lams, nil
	}
	results, err := o.g.EvaluateAll(ctx, cfgs, o.workers)
	if err != nil {
		return nil, err
	}
	lams := make([]float64, len(results))
	for i, r := range results {
		lams[i] = r.Lambda
	}
	return lams, nil
}

package core

import (
	"errors"
	"fmt"

	"repro/internal/kriging"
	"repro/internal/rng"
	"repro/internal/space"
)

// InfillOptions parameterises variance-targeted infill sampling: after
// the initial pilot, the model's own uncertainty decides where the next
// simulations go — the classical active-learning refinement of a kriging
// surrogate (maximum-variance infill), and the natural extension of the
// paper's static pilot.
type InfillOptions struct {
	// Budget is the number of additional simulations to spend.
	Budget int
	// Candidates is the size of the Latin-hypercube candidate pool the
	// variance is scored over per step; zero selects 64.
	Candidates int
	// Seed drives the candidate draws.
	Seed uint64
}

// InfillResult reports where the infill budget went.
type InfillResult struct {
	// Added lists the simulated configurations in selection order.
	Added []space.Config
	// Variances lists the predicted kriging variance of each selection
	// at the time it was chosen (monotone decreasing on average as the
	// surrogate saturates).
	Variances []float64
}

// RunInfill spends Budget extra simulations at the candidate points of
// maximal kriging variance, extending the pilot set (and invalidating the
// cached identification, which refits on the enriched pilot).
func (p *Pipeline) RunInfill(opts InfillOptions) (*InfillResult, error) {
	if opts.Budget <= 0 {
		return nil, fmt.Errorf("core: non-positive infill budget %d", opts.Budget)
	}
	if len(p.pilotCfgs) < 3 {
		return nil, ErrNoPilot
	}
	nCand := opts.Candidates
	if nCand == 0 {
		nCand = 64
	}
	r := rng.NewNamed(opts.Seed, "core-infill")
	res := &InfillResult{}
	for step := 0; step < opts.Budget; step++ {
		id, err := p.Identify()
		if err != nil {
			return nil, err
		}
		ok := &kriging.Ordinary{Model: id.Model, Nugget: p.opts.Nugget}
		coords := make([][]float64, len(p.pilotCfgs))
		for i, c := range p.pilotCfgs {
			coords[i] = c.Floats()
		}
		ys := p.transformed()

		seen := make(map[string]bool, len(p.pilotCfgs))
		for _, c := range p.pilotCfgs {
			seen[c.Key()] = true
		}
		var best space.Config
		bestVar := -1.0
		for _, cand := range LatinHypercube(p.bounds, nCand, r) {
			if seen[cand.Key()] {
				continue
			}
			_, variance, err := ok.PredictVar(coords, ys, cand.Floats())
			if err != nil {
				continue
			}
			if variance > bestVar {
				bestVar = variance
				best = cand
			}
		}
		if best == nil {
			return res, errors.New("core: no admissible infill candidate found")
		}
		v, err := p.sim.Evaluate(best)
		if err != nil {
			return res, fmt.Errorf("core: infill simulation of %v: %w", best, err)
		}
		p.pilotCfgs = append(p.pilotCfgs, best)
		p.pilotVals = append(p.pilotVals, v)
		p.id = nil
		res.Added = append(res.Added, best)
		res.Variances = append(res.Variances, bestVar)
	}
	return res, nil
}

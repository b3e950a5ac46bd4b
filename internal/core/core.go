// Package core assembles the paper's method into the workflow Section
// III prescribes: the semivariogram of the (application, metric) pair is
// identified ONCE from a pilot set of simulated configurations ("the
// identification of the semi-variogram has to be done once for a
// particular metric and application"), and the resulting global model
// then drives every kriging interpolation inside the optimisation loop.
//
// The pieces compose as:
//
//	p, _ := core.New(sim, bounds, core.Options{D: 3})
//	_ = p.RunPilot(32, seed)        // simulate a space-filling pilot set
//	id, _ := p.Identify()           // fit the semivariogram + LOOCV check
//	ev, _ := p.Evaluator()          // kriging evaluator, store pre-seeded
//
// Compared with using evaluator.New directly (which refits a local
// variogram per query, the Numerical Recipes behaviour), the pipeline
// trades a pilot-simulation budget for a stationary model with known
// cross-validation quality.
package core

import (
	"errors"
	"fmt"

	"repro/internal/evaluator"
	"repro/internal/kriging"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/variogram"
)

// ErrNoPilot is returned when identification or evaluator construction is
// requested before a pilot set exists.
var ErrNoPilot = errors.New("core: no pilot samples; call RunPilot first")

// Options configures the pipeline.
type Options struct {
	// D is the kriging neighbourhood radius handed to the evaluator.
	D float64
	// NnMin is the minimum-neighbour threshold (default 1).
	NnMin int
	// MaxSupport caps the per-query support size; zero selects 10.
	MaxSupport int
	// Kind selects the semivariogram family to identify; the zero value
	// is the Numerical Recipes power model.
	Kind variogram.Kind
	// Beta fixes the power-model exponent when Kind is Power; zero
	// selects variogram.DefaultBeta.
	Beta float64
	// Nugget is the identified model's nugget (and the system
	// regulariser).
	Nugget float64
	// Transform / Untransform map the metric into the kriging domain
	// and back (e.g. evaluator.NegPowerToDB for noise powers).
	Transform, Untransform func(float64) float64
}

// Identification is the result of the once-per-application variogram
// identification step.
type Identification struct {
	// Model is the fitted global semivariogram.
	Model variogram.Model
	// CV is the leave-one-out cross-validation of ordinary kriging with
	// Model over the pilot set; MeanAbs is in the kriging domain.
	CV kriging.LOOCVResult
	// Samples is the pilot size the model was fitted on.
	Samples int
}

// Pipeline drives the pilot → identify → evaluate workflow.
type Pipeline struct {
	sim    evaluator.Simulator
	bounds space.Bounds
	opts   Options

	pilotCfgs []space.Config
	pilotVals []float64 // raw metric values (untransformed)
	id        *Identification
}

// New builds a pipeline for one application simulator over its
// configuration box.
func New(sim evaluator.Simulator, bounds space.Bounds, opts Options) (*Pipeline, error) {
	if sim == nil {
		return nil, errors.New("core: nil simulator")
	}
	if err := bounds.Validate(); err != nil {
		return nil, err
	}
	if bounds.Dim() != sim.Nv() {
		return nil, fmt.Errorf("core: bounds have %d dimensions, simulator expects %d", bounds.Dim(), sim.Nv())
	}
	if (opts.Transform == nil) != (opts.Untransform == nil) {
		return nil, errors.New("core: Transform and Untransform must be set together")
	}
	if opts.D < 0 {
		return nil, fmt.Errorf("core: negative distance %v", opts.D)
	}
	return &Pipeline{sim: sim, bounds: bounds, opts: opts}, nil
}

// PilotSize returns the number of pilot samples simulated so far.
func (p *Pipeline) PilotSize() int { return len(p.pilotCfgs) }

// RunPilot simulates n configurations drawn by Latin-hypercube sampling
// over the bounds and records them as the identification set. Calling it
// again extends the pilot set with fresh samples (duplicates are
// re-simulated only if the simulator is not memoised).
func (p *Pipeline) RunPilot(n int, seed uint64) error {
	if n <= 0 {
		return fmt.Errorf("core: non-positive pilot size %d", n)
	}
	cfgs := LatinHypercube(p.bounds, n, rng.NewNamed(seed, "core-pilot"))
	for _, c := range cfgs {
		v, err := p.sim.Evaluate(c)
		if err != nil {
			return fmt.Errorf("core: pilot simulation of %v: %w", c, err)
		}
		p.pilotCfgs = append(p.pilotCfgs, c)
		p.pilotVals = append(p.pilotVals, v)
	}
	p.id = nil // a new pilot invalidates a previous identification
	return nil
}

// transformed returns the pilot values in the kriging domain.
func (p *Pipeline) transformed() []float64 {
	if p.opts.Transform == nil {
		return append([]float64(nil), p.pilotVals...)
	}
	out := make([]float64, len(p.pilotVals))
	for i, v := range p.pilotVals {
		out[i] = p.opts.Transform(v)
	}
	return out
}

// Identify fits the global semivariogram on the pilot set and
// cross-validates it. The identification is cached until the pilot set
// changes.
func (p *Pipeline) Identify() (*Identification, error) {
	if p.id != nil {
		return p.id, nil
	}
	if len(p.pilotCfgs) < 3 {
		return nil, ErrNoPilot
	}
	coords := make([][]float64, len(p.pilotCfgs))
	for i, c := range p.pilotCfgs {
		coords[i] = c.Floats()
	}
	ys := p.transformed()
	cloud := variogram.CloudFromSamples(coords, ys, kriging.L1Distance)
	var (
		model variogram.Model
		err   error
	)
	if p.opts.Kind == variogram.Power {
		beta := p.opts.Beta
		if beta == 0 {
			beta = variogram.DefaultBeta
		}
		model, err = variogram.FitPower(cloud, beta, p.opts.Nugget)
	} else {
		model, err = variogram.Fit(p.opts.Kind, cloud, p.opts.Nugget)
	}
	if err != nil {
		return nil, fmt.Errorf("core: variogram identification: %w", err)
	}
	maxSupport := p.opts.MaxSupport
	if maxSupport == 0 {
		maxSupport = 10
	}
	// Cross-validate through the same capped-support predictor the
	// evaluator will use; uncapped systems over the whole pilot cloud
	// are ill-conditioned with unbounded variograms.
	ok := &kriging.Capped{
		Inner: &kriging.Ordinary{Model: model, Nugget: p.opts.Nugget},
		K:     maxSupport,
	}
	p.id = &Identification{
		Model:   model,
		CV:      kriging.LeaveOneOut(ok, coords, ys),
		Samples: len(p.pilotCfgs),
	}
	return p.id, nil
}

// Evaluator builds the kriging-accelerated evaluator with the identified
// global model, its store pre-seeded with the pilot simulations (they are
// real simulation results and immediately widen the interpolable region).
func (p *Pipeline) Evaluator() (*evaluator.Evaluator, error) {
	id, err := p.Identify()
	if err != nil {
		return nil, err
	}
	maxSupport := p.opts.MaxSupport
	if maxSupport == 0 {
		maxSupport = 10
	}
	nnMin := p.opts.NnMin
	if nnMin == 0 {
		nnMin = 1
	}
	ev, err := evaluator.New(p.sim, evaluator.Options{
		D:           p.opts.D,
		NnMin:       nnMin,
		MaxSupport:  maxSupport,
		Interp:      &kriging.Ordinary{Model: id.Model, Nugget: p.opts.Nugget},
		Transform:   p.opts.Transform,
		Untransform: p.opts.Untransform,
	})
	if err != nil {
		return nil, err
	}
	for i, c := range p.pilotCfgs {
		ev.Store().Add(c, p.pilotVals[i])
	}
	return ev, nil
}

// Package repro is the public facade of the reproduction of Bonnot,
// Menard and Desnos, "Fast Kriging-based Error Evaluation for Approximate
// Computing Systems" (DATE 2020).
//
// The package re-exports the pieces a downstream user composes:
//
//   - the kriging interpolators and semivariogram models
//     (internal/kriging, internal/variogram),
//   - the kriging-accelerated quality evaluator and its replay harness
//     (internal/evaluator),
//   - the optimisation algorithms the paper plugs the evaluator into
//     (internal/optim),
//   - the configuration-space primitives (internal/space).
//
// A minimal use looks like:
//
//	sim := evaluator.SimulatorFunc{NumVars: 2, Fn: mySimulation}
//	ev, _ := repro.NewEvaluator(sim, repro.EvaluatorOptions{D: 3})
//	res, _ := ev.Evaluate(space.Config{8, 12})
//	// res.Source tells whether the value was simulated or kriged.
//
// The five paper benchmarks and the Table I / Figure 1 harnesses live in
// internal/bench and are driven by the executables under cmd/.
package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/evaluator"
	"repro/internal/kriging"
	"repro/internal/optim"
	"repro/internal/space"
	"repro/internal/variogram"
)

// Config is an integer configuration vector of approximation knobs.
type Config = space.Config

// Bounds is an axis-aligned search box over configurations.
type Bounds = space.Bounds

// Evaluator is the kriging-accelerated quality evaluator (the paper's
// core contribution).
type Evaluator = evaluator.Evaluator

// EvaluatorOptions configures an Evaluator; the zero value of D disables
// interpolation (every query simulates).
type EvaluatorOptions = evaluator.Options

// Simulator measures the quality metric of one configuration.
type Simulator = evaluator.Simulator

// SimulatorFunc adapts a function to the Simulator interface.
type SimulatorFunc = evaluator.SimulatorFunc

// Result is the outcome of one evaluator query.
type Result = evaluator.Result

// Trace is a recorded optimisation trajectory for replay studies.
type Trace = evaluator.Trace

// Interpolator predicts a field value from scattered samples.
type Interpolator = kriging.Interpolator

// OrdinaryKriging is the interpolator of Eqs. 7-10.
type OrdinaryKriging = kriging.Ordinary

// SimpleKriging is the known-mean kriging variant.
type SimpleKriging = kriging.Simple

// VariogramModel is a fitted semivariogram.
type VariogramModel = variogram.Model

// Pipeline is the once-per-application workflow of Section III-A: pilot
// simulations, a single global variogram identification, and a kriging
// evaluator built on the identified model.
type Pipeline = core.Pipeline

// PipelineOptions configures a Pipeline.
type PipelineOptions = core.Options

// NewPipeline builds a pilot → identify → evaluate pipeline for one
// application simulator over its configuration bounds.
func NewPipeline(sim Simulator, bounds Bounds, opts PipelineOptions) (*Pipeline, error) {
	return core.New(sim, bounds, opts)
}

// NewEvaluator builds a kriging-accelerated evaluator around a simulator.
func NewEvaluator(sim Simulator, opts EvaluatorOptions) (*Evaluator, error) {
	return evaluator.New(sim, opts)
}

// Replay feeds a recorded trajectory through the kriging decision rule
// and reports the Table I statistics (p%, j̄, ε).
func Replay(trace Trace, opts EvaluatorOptions, kind evaluator.ErrorKind) (evaluator.ReplayRow, error) {
	return evaluator.Replay(trace, opts, kind)
}

// Engine is the admission-controlled request path of an Evaluator:
// single-flight coalescing of identical concurrent misses, and one
// simulation bound over live queries and batches alike (see
// evaluator.Engine).
type Engine = evaluator.Engine

// NewEngine builds an engine over an evaluator; maxSims bounds the
// simulations in flight across all its callers (0: unbounded).
func NewEngine(ev *Evaluator, maxSims int) *Engine {
	return ev.Engine(maxSims)
}

// MinPlusOne runs the min+1 bit word-length optimisation (Algorithms 1-2)
// against any oracle, e.g. a kriging-accelerated evaluator adapted with
// OracleFromEvaluator. It is the background-context form of
// MinPlusOneContext.
func MinPlusOne(oracle optim.Oracle, opts optim.MinPlusOneOptions) (optim.MinPlusOneResult, error) {
	return optim.MinPlusOne(context.Background(), oracle, opts)
}

// MinPlusOneContext is MinPlusOne under a request context: cancelling
// ctx aborts the optimisation (and, with a context-aware simulator, the
// in-flight simulation) with ctx's error.
func MinPlusOneContext(ctx context.Context, oracle optim.Oracle, opts optim.MinPlusOneOptions) (optim.MinPlusOneResult, error) {
	return optim.MinPlusOne(ctx, oracle, opts)
}

// NoiseBudget runs the steepest-descent error-budgeting optimisation. It
// is the background-context form of NoiseBudgetContext.
func NoiseBudget(oracle optim.Oracle, opts optim.NoiseBudgetOptions) (optim.NoiseBudgetResult, error) {
	return optim.NoiseBudget(context.Background(), oracle, opts)
}

// NoiseBudgetContext is NoiseBudget under a request context.
func NoiseBudgetContext(ctx context.Context, oracle optim.Oracle, opts optim.NoiseBudgetOptions) (optim.NoiseBudgetResult, error) {
	return optim.NoiseBudget(ctx, oracle, opts)
}

// OracleFromEvaluator adapts an Evaluator to the optimisers' Oracle
// interface, discarding the provenance information. Queries run one at a
// time under the optimiser's request context.
func OracleFromEvaluator(ev *Evaluator) optim.Oracle {
	return ev.Oracle(1)
}

package bench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/evaluator"
	"repro/internal/kriging"
)

// DefaultDistances are the neighbourhood radii swept by Table I.
var DefaultDistances = []float64{2, 3, 4, 5}

// Table1Options parameterises a Table I regeneration.
type Table1Options struct {
	// Seed drives every random draw of the run.
	Seed uint64
	// Distances to sweep; nil means DefaultDistances.
	Distances []float64
	// NnMin is the minimum-neighbour threshold; the zero value selects
	// the paper's default of 1 (kriging needs at least two supports).
	NnMin int
	// Interp overrides the interpolator (nil: ordinary kriging with the
	// NR power variogram over L1, the paper's configuration).
	Interp kriging.Interpolator
	// LinearDomain kriges the raw λ = -P field instead of the default
	// dB domain for the noise-power benchmarks (see
	// evaluator.NegPowerToDB). The classification-rate benchmark is
	// always kriged in its native domain.
	LinearDomain bool
	// MaxSupport caps each interpolation at the nearest points; the
	// zero value selects 10 (a small well-conditioned Γ system, in the
	// range Numerical Recipes recommends). Negative disables the cap.
	MaxSupport int
	// Mode selects the replay support protocol (default ModePaper).
	Mode evaluator.ReplayMode
}

func (o *Table1Options) distances() []float64 {
	if len(o.Distances) == 0 {
		return DefaultDistances
	}
	return o.Distances
}

// BenchmarkResult is the Table I block of one benchmark.
type BenchmarkResult struct {
	Spec       *Spec
	TraceLen   int
	Rows       []evaluator.ReplayRow
	Trajectory evaluator.Trace
}

// RunBenchmark records the benchmark's simulation-only trajectory once
// and replays it at every distance, producing that benchmark's Table I
// rows. Cancelling ctx aborts the recording run.
func RunBenchmark(ctx context.Context, sp *Spec, opts Table1Options) (*BenchmarkResult, error) {
	trace, err := sp.Record(ctx, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", sp.Name, err)
	}
	return ReplayTrace(sp, trace, opts)
}

// ReplayTrace replays an already-recorded trajectory at every distance.
func ReplayTrace(sp *Spec, trace evaluator.Trace, opts Table1Options) (*BenchmarkResult, error) {
	res := &BenchmarkResult{Spec: sp, TraceLen: len(trace), Trajectory: trace}
	for _, d := range opts.distances() {
		nnMin := opts.NnMin
		if nnMin == 0 {
			nnMin = 1
		}
		maxSupport := opts.MaxSupport
		switch {
		case maxSupport == 0:
			maxSupport = 10
		case maxSupport < 0:
			maxSupport = 0
		}
		evOpts := evaluator.Options{
			D:          d,
			NnMin:      nnMin,
			MaxSupport: maxSupport,
			Interp:     opts.Interp,
		}
		if !opts.LinearDomain {
			applyDefaultDomain(sp, &evOpts)
		}
		row, err := evaluator.ReplayModed(trace, evOpts, sp.ErrKind, opts.Mode)
		if err != nil {
			return nil, fmt.Errorf("bench: %s replay at d=%v: %w", sp.Name, d, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// RenderTable1 renders benchmark results in the paper's Table I layout.
func RenderTable1(results []*BenchmarkResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %-20s %3s %3s %8s %6s %10s %10s\n",
		"benchmark", "lambda", "Nv", "d", "p(%)", "j", "max eps", "mu eps")
	b.WriteString(strings.Repeat("-", 78) + "\n")
	for _, res := range results {
		for i, row := range res.Rows {
			name, metric, nv := "", "", ""
			if i == 0 {
				name = res.Spec.Name
				metric = res.Spec.Metric
				nv = fmt.Sprintf("%d", res.Spec.Nv)
			}
			unit := ""
			if row.ErrKind == evaluator.ErrorRelative {
				unit = "%"
			}
			maxE, muE := row.MaxEps, row.MeanEps
			if row.ErrKind == evaluator.ErrorRelative {
				maxE *= 100
				muE *= 100
			}
			fmt.Fprintf(&b, "%-11s %-20s %3s %3.0f %8.2f %6.2f %9.2f%s %9.2f%s\n",
				name, metric, nv, row.D, row.Percent, row.MeanNeigh, maxE, unit, muE, unit)
		}
		b.WriteString(strings.Repeat("-", 78) + "\n")
	}
	return b.String()
}

package bench

import (
	"context"
	"fmt"
	"io"

	"repro/internal/evaluator"
	"repro/internal/variogram"
)

// ReportOptions parameterises a full-campaign report.
type ReportOptions struct {
	Seed  uint64
	Size  Size
	NnMin int
	// Benchmarks to include; nil means all five Table I benchmarks.
	Benchmarks []string
	// AblateOn names the benchmark the ablation studies run on; empty
	// selects "fir".
	AblateOn string
	// SkipSpeedup disables the timing section (useful under -short).
	SkipSpeedup bool
}

// WriteReport regenerates the full evaluation — Table I, the Eq. 2
// speed-up model and the ablation studies — and writes it as a Markdown
// document. It is the one-command version of the per-artefact tools
// under cmd/. Cancelling ctx aborts the campaign between evaluations.
func WriteReport(ctx context.Context, w io.Writer, opts ReportOptions) error {
	names := opts.Benchmarks
	if len(names) == 0 {
		names = []string{"fir", "iir", "fft", "hevc", "squeezenet"}
	}
	ablateOn := opts.AblateOn
	if ablateOn == "" {
		ablateOn = "fir"
	}
	fmt.Fprintf(w, "# Kriging-based error evaluation — regenerated results\n\n")
	fmt.Fprintf(w, "Seed %d, %s-size data sets.\n\n", opts.Seed, sizeName(opts.Size))

	// --- Table I ---
	fmt.Fprintf(w, "## Table I\n\n")
	fmt.Fprintf(w, "| benchmark | metric | Nv | d | p(%%) | j | max eps | mu eps |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|\n")
	var results []*BenchmarkResult
	var specs []*Spec
	for _, name := range names {
		sp, err := SpecByName(name, opts.Size)
		if err != nil {
			return err
		}
		res, err := RunBenchmark(ctx, sp, Table1Options{Seed: opts.Seed, NnMin: opts.NnMin})
		if err != nil {
			return err
		}
		specs = append(specs, sp)
		results = append(results, res)
		for _, row := range res.Rows {
			unit := ""
			maxE, muE := row.MaxEps, row.MeanEps
			if row.ErrKind == evaluator.ErrorRelative {
				unit = "%"
				maxE *= 100
				muE *= 100
			}
			fmt.Fprintf(w, "| %s | %s | %d | %.0f | %.2f | %.2f | %.2f%s | %.2f%s |\n",
				sp.Name, sp.Metric, sp.Nv, row.D, row.Percent, row.MeanNeigh, maxE, unit, muE, unit)
		}
	}
	fmt.Fprintln(w)

	// --- Speed-up model ---
	if !opts.SkipSpeedup {
		fmt.Fprintf(w, "## Speed-up model (Eq. 2, d = 3)\n\n")
		fmt.Fprintf(w, "| benchmark | N | N_sim | N_krig | t_o | t_i | speed-up |\n")
		fmt.Fprintf(w, "|---|---|---|---|---|---|---|\n")
		for i, res := range results {
			row, err := MeasureSpeedup(ctx, specs[i], res, 3, opts.Seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "| %s | %d | %d | %d | %v | %v | %.2fx |\n",
				row.Name, row.N, row.NSim, row.NInterp, row.TSim, row.TInterp, row.Speedup)
		}
		fmt.Fprintln(w)
	}

	// --- Ablations ---
	var ablSpec *Spec
	var ablTrace evaluator.Trace
	for i, sp := range specs {
		if sp.Name == ablateOn {
			ablSpec = sp
			ablTrace = results[i].Trajectory
			break
		}
	}
	if ablSpec == nil {
		sp, err := SpecByName(ablateOn, opts.Size)
		if err != nil {
			return err
		}
		trace, err := sp.Record(ctx, opts.Seed)
		if err != nil {
			return err
		}
		ablSpec, ablTrace = sp, trace
	}
	fmt.Fprintf(w, "## Ablations (%s, d = 3)\n\n", ablSpec.Name)
	fmt.Fprintf(w, "| variant | p(%%) | j | max eps | mu eps |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|\n")
	var rows []AblationRow
	nn, err := AblateNnMin(ablSpec, ablTrace, 3, []int{1, 2, 3})
	if err != nil {
		return err
	}
	rows = append(rows, nn...)
	vg, err := AblateVariogram(ablSpec, ablTrace, 3, []variogram.Kind{
		variogram.Power, variogram.Linear, variogram.Spherical,
		variogram.Exponential, variogram.Gaussian,
	})
	if err != nil {
		return err
	}
	rows = append(rows, vg...)
	ip, err := AblateInterpolator(ablSpec, ablTrace, 3)
	if err != nil {
		return err
	}
	rows = append(rows, ip...)
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %.2f | %.2f | %.3f | %.3f |\n",
			r.Variant, r.Row.Percent, r.Row.MeanNeigh, r.Row.MaxEps, r.Row.MeanEps)
	}
	fmt.Fprintln(w)
	return nil
}

func sizeName(s Size) string {
	if s == Full {
		return "full"
	}
	return "small"
}

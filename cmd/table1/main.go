// Command table1 regenerates Table I of the paper: for each benchmark it
// records the simulation-only optimisation trajectory, replays it through
// the kriging decision rule at d = 2..5, and prints p(%), j̄ and the
// interpolation errors. With -speedup it additionally prints the Eq. 2
// total-time model.
//
// Usage:
//
//	table1 [-bench name] [-size small|full] [-seed n] [-nnmin n] [-speedup]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/evaluator"
)

// obtainTrace loads the benchmark's trajectory from traceDir when a file
// recorded for the same benchmark, size and seed exists there, and
// records (and saves) it otherwise. An empty traceDir always records
// without persisting.
func obtainTrace(ctx context.Context, sp *bench.Spec, size string, seed uint64, traceDir string) (evaluator.Trace, bool, error) {
	if traceDir == "" {
		trace, err := sp.Record(ctx, seed)
		return trace, false, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-%s-seed%d.json", sp.Name, size, seed))
	if f, err := os.Open(path); err == nil {
		defer f.Close()
		trace, err := evaluator.LoadTrace(f)
		if err != nil {
			return nil, false, fmt.Errorf("loading %s: %w", path, err)
		}
		return trace, true, nil
	}
	trace, err := sp.Record(ctx, seed)
	if err != nil {
		return nil, false, err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, false, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	if err := evaluator.SaveTrace(f, trace); err != nil {
		return nil, false, err
	}
	return trace, false, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("table1: ")
	var (
		common   = cli.AddCommon("", "run a single benchmark (fir|iir|fft|hevc|hevc-ssim|squeezenet); empty runs all")
		nnMin    = flag.Int("nnmin", 1, "minimum-neighbour threshold Nn,min")
		speedup  = flag.Bool("speedup", false, "also print the Eq. 2 speed-up model at d=3")
		scaling  = flag.Bool("scaling", false, "also print the p%% vs Nv scaling study at d=3")
		traceDir = flag.String("tracedir", "", "directory of recorded trajectories: reuse <name>-<size>-seed<seed>.json when present, record and save otherwise")
	)
	flag.Parse()
	ctx, stop := cli.SignalContext()
	defer stop()

	size, err := common.Size()
	if err != nil {
		log.Fatal(err)
	}

	var specs []*bench.Spec
	if common.BenchName == "" {
		all, err := bench.AllSpecs(size)
		if err != nil {
			log.Fatal(err)
		}
		specs = all
	} else {
		sp, err := common.Spec()
		if err != nil {
			log.Fatal(err)
		}
		specs = []*bench.Spec{sp}
	}

	opts := bench.Table1Options{Seed: common.Seed, NnMin: *nnMin}
	var results []*bench.BenchmarkResult
	for _, sp := range specs {
		trace, fromDisk, err := obtainTrace(ctx, sp, common.SizeName, common.Seed, *traceDir)
		if err != nil {
			cli.Fail(err)
		}
		if fromDisk {
			fmt.Fprintf(os.Stderr, "%s: %d configurations loaded from %s\n",
				sp.Name, len(trace), *traceDir)
		} else {
			fmt.Fprintf(os.Stderr, "%s: %d configurations recorded (Nv=%d)\n",
				sp.Name, len(trace), sp.Nv)
		}
		res, err := bench.ReplayTrace(sp, trace, opts)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, res)
	}
	fmt.Print(bench.RenderTable1(results))

	if *speedup {
		var rows []bench.SpeedupRow
		for i, res := range results {
			row, err := bench.MeasureSpeedup(ctx, specs[i], res, 3, common.Seed)
			if err != nil {
				cli.Fail(err)
			}
			rows = append(rows, row)
		}
		fmt.Println()
		fmt.Print(bench.RenderSpeedup(rows))
	}

	if *scaling {
		rows, err := bench.ScalingStudy(ctx, nil, size, common.Seed, 3)
		if err != nil {
			cli.Fail(err)
		}
		fmt.Println()
		fmt.Print(bench.RenderScaling(rows, 3))
	}
}

// Command wlopt runs the min+1 bit word-length optimisation on one of the
// fixed-point benchmarks, either with plain simulation or with the
// kriging-accelerated evaluator, and reports the resulting word-length
// vector alongside the evaluator statistics.
//
// Usage:
//
//	wlopt [-bench fir|iir|fft|hevc] [-d n] [-nnmin n] [-lambda dB]
//	      [-size small|full] [-seed n] [-nokriging] [-workers n]
//	      [-state dir] [-sim-workers url:key,...] [-sim-cap n]
//
// With -workers > 1 (or 0 for GOMAXPROCS) the min+1 competition evaluates
// its candidate word-length vectors as one parallel batch per greedy
// round, so the optimisation scales across cores. A first SIGINT/SIGTERM
// cancels the run gracefully through the evaluation engine.
//
// With -state the support store is durable: every simulated result is
// logged (checksummed, fsynced) to the directory before it is
// acknowledged, and a re-run against the same directory resumes from the
// recovered store instead of re-simulating — killing a long campaign,
// even with -9, costs at most the one in-flight batch.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"repro/internal/cli"
	"repro/internal/evaluator"
	"repro/internal/optim"
	"repro/internal/simpool"
	"repro/internal/space"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wlopt: ")
	var (
		common    = cli.AddCommon("fir", "benchmark: fir, iir, fft or hevc")
		algo      = flag.String("algo", "minplus1", "optimiser: minplus1, max1, anneal or ga")
		d         = flag.Float64("d", 3, "kriging neighbourhood radius (L1)")
		nnMin     = flag.Int("nnmin", 1, "minimum-neighbour threshold")
		lambdaDB  = flag.Float64("lambda", -40, "accuracy constraint: output noise power in dB")
		noKriging = flag.Bool("nokriging", false, "disable interpolation (simulation only)")
		refine    = flag.Bool("refine", false, "run a ±1 local search after the optimiser")
		workers   = flag.Int("workers", 1, "parallel simulations per competition round (0 = GOMAXPROCS)")
		stateDir  = flag.String("state", "", "state directory for a durable support store (resume interrupted campaigns)")
		simWork   = flag.String("sim-workers", "", "comma-separated remote simd workers as url[:key]; empty simulates in-process")
		simCap    = flag.Int("sim-cap", 0, "max outstanding requests per remote worker (0 = pool default)")
	)
	flag.Parse()
	ctx, stop := cli.SignalContext()
	defer stop()
	if common.BenchName == "squeezenet" {
		log.Fatal("squeezenet is a sensitivity benchmark; use cmd/sensitivity")
	}
	sp, err := common.Spec()
	if err != nil {
		log.Fatal(err)
	}
	// -sim-workers runs the campaign's simulations on remote simd
	// processes (which must serve the same -bench/-size/-seed); the
	// evaluator, store and optimiser stay in this process.
	var sim evaluator.Simulator
	if *simWork != "" {
		specs, err := simpool.ParseWorkerSpecs(*simWork)
		if err != nil {
			log.Fatal(err)
		}
		pool, err := simpool.NewPool(simpool.Options{
			Workers:      specs,
			Nv:           sp.Nv,
			PerWorkerCap: *simCap,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer pool.Close()
		sim = pool
	} else if sim, err = sp.NewSimulator(common.Seed); err != nil {
		log.Fatal(err)
	}
	opts := evaluator.Options{D: *d, NnMin: *nnMin, MaxSupport: 10}
	if *noKriging {
		opts = evaluator.Options{}
	} else {
		opts.Transform = evaluator.NegPowerToDB
		opts.Untransform = evaluator.DBToNegPower
	}
	opts.StateDir = *stateDir
	ev, err := evaluator.New(sim, opts)
	if err != nil {
		log.Fatal(err)
	}
	// A bare `defer ev.Close()` would swallow a sticky durability
	// failure: with -state, results are only trustworthy if the
	// write-ahead log closed cleanly, so a failed store must surface at
	// exit with a non-zero status — on the success path, on optimiser
	// errors, and on the SIGINT/SIGTERM path through fail below.
	defer func() {
		if err := ev.Close(); err != nil {
			log.Fatalf("state store: %v", err)
		}
	}()
	fail := func(err error) {
		if cerr := ev.Close(); cerr != nil {
			log.Printf("state store: %v", cerr)
		}
		cli.Fail(err)
	}
	if *stateDir != "" && ev.Store().Len() > 0 {
		fmt.Printf("resumed        : %d simulated configurations from %s\n", ev.Store().Len(), *stateDir)
	}
	// The adapter satisfies optim.BatchOracle, so the min+1 competition
	// runs each round's candidates as one parallel batch when -workers
	// allows more than one in-flight simulation; -workers 1 keeps the
	// classic sequential semantics (the adapter issues batch members one
	// at a time, letting later candidates krige from earlier ones).
	var oracle optim.Oracle = ev.Oracle(*workers)
	lambdaMin := -math.Pow(10, *lambdaDB/10)
	var (
		wres        space.Config
		lambda      float64
		evaluations int
	)
	switch *algo {
	case "minplus1":
		res, err := optim.MinPlusOne(ctx, oracle, optim.MinPlusOneOptions{
			LambdaMin: lambdaMin,
			Bounds:    sp.Bounds,
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("wmin           : %v\n", res.WMin)
		wres, lambda, evaluations = res.WRes, res.Lambda, res.Evaluations
	case "max1":
		res, err := optim.MaxMinusOne(ctx, oracle, optim.MaxMinusOneOptions{
			LambdaMin: lambdaMin,
			Bounds:    sp.Bounds,
		})
		if err != nil {
			fail(err)
		}
		wres, lambda, evaluations = res.WRes, res.Lambda, res.Evaluations
	case "anneal":
		res, err := optim.Anneal(ctx, oracle, optim.AnnealOptions{
			LambdaMin: lambdaMin,
			Bounds:    sp.Bounds,
			Seed:      common.Seed,
		})
		if err != nil {
			fail(err)
		}
		wres, lambda, evaluations = res.Best, res.Lambda, res.Evaluations
	case "ga":
		res, err := optim.Genetic(ctx, oracle, optim.GeneticOptions{
			LambdaMin: lambdaMin,
			Bounds:    sp.Bounds,
			Seed:      common.Seed,
		})
		if err != nil {
			fail(err)
		}
		wres, lambda, evaluations = res.Best, res.Lambda, res.Evaluations
	default:
		log.Fatalf("unknown algorithm %q (want minplus1, max1, anneal or ga)", *algo)
	}
	if *refine {
		res, err := optim.LocalSearch(ctx, oracle, wres, optim.LocalSearchOptions{
			LambdaMin: lambdaMin,
			Bounds:    sp.Bounds,
		})
		switch {
		case errors.Is(err, optim.ErrInfeasible):
			// A kriged λ can drift slightly between calls as the
			// support store grows, so an incumbent right at the
			// constraint may re-evaluate as infeasible. Keep the
			// unrefined result rather than aborting.
			fmt.Fprintln(os.Stderr, "wlopt: local search skipped (incumbent re-evaluated at the constraint boundary)")
		case err != nil:
			fail(err)
		default:
			wres, lambda = res.W, res.Lambda
			evaluations += res.Evaluations
		}
	}
	st := ev.Stats()
	fmt.Printf("benchmark      : %s (Nv=%d, %s)\n", sp.Name, sp.Nv, *algo)
	fmt.Printf("constraint     : %.1f dB (lambda >= %.3g)\n", *lambdaDB, lambdaMin)
	fmt.Printf("wres           : %v (total %d bits)\n", wres, int(optim.TotalBits(wres)))
	fmt.Printf("lambda(wres)   : %.3g\n", lambda)
	fmt.Printf("evaluations    : %d (%d simulated, %d kriged, p=%.2f%%, j=%.2f)\n",
		evaluations, st.NSim, st.NInterp, st.PercentInterpolated(), st.MeanNeighbors())
	fmt.Printf("est. speed-up  : %.2fx (Eq. 2 with measured times)\n", st.EstimatedSpeedup())
}

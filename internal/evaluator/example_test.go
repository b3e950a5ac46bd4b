package evaluator_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/evaluator"
	"repro/internal/space"
)

// ExampleEvaluator_EvaluateAll runs a batch of queries on the worker
// pool. The first batch finds an empty support store, so every query is
// simulated and committed through the store's bulk-write path in input
// order; in the second batch an exact revisit is answered from the store
// and a new configuration close to the first batch's results is kriged
// instead of simulated.
func ExampleEvaluator_EvaluateAll() {
	sim := evaluator.SimulatorFunc{
		NumVars: 2,
		Fn: func(c space.Config) (float64, error) {
			return -float64(c[0] + c[1]), nil
		},
	}
	ev, err := evaluator.New(sim, evaluator.Options{D: 2})
	if err != nil {
		panic(err)
	}
	first := []space.Config{{8, 8}, {8, 9}, {9, 8}, {9, 9}}
	results, err := ev.EvaluateAll(first, 4)
	if err != nil {
		panic(err)
	}
	for i, r := range results {
		fmt.Printf("%v %s %.0f\n", first[i], r.Source, r.Lambda)
	}
	second := []space.Config{{8, 9}, {9, 10}}
	results, err = ev.EvaluateAll(second, 2)
	if err != nil {
		panic(err)
	}
	for i, r := range results {
		fmt.Printf("%v %s\n", second[i], r.Source)
	}
	fmt.Println("simulations:", ev.Stats().NSim)
	// Output:
	// (8,8) simulated -16
	// (8,9) simulated -17
	// (9,8) simulated -17
	// (9,9) simulated -18
	// (8,9) simulated
	// (9,10) interpolated
	// simulations: 4
}

// ExampleEngine serves concurrent sessions through the engine: eight
// concurrent requests for the same configuration coalesce onto one
// simulation, and the admission bound caps how many simulations the
// engine lets fly at once.
func ExampleEngine() {
	var sims atomic.Int64
	sim := evaluator.SimulatorFunc{
		NumVars: 2,
		Fn: func(c space.Config) (float64, error) {
			sims.Add(1)
			return -float64(c[0] + c[1]), nil
		},
	}
	ev, err := evaluator.New(sim, evaluator.Options{})
	if err != nil {
		panic(err)
	}
	eng := ev.Engine(4) // at most 4 simulations in flight
	ctx := context.Background()
	results := make([]evaluator.Result, 8)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := eng.Evaluate(ctx, space.Config{8, 12})
			if err != nil {
				panic(err)
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if i > 0 {
			fmt.Print(" ")
		}
		fmt.Printf("%.0f", res.Lambda)
	}
	fmt.Printf("\nsimulations: %d\n", sims.Load())
	// Output:
	// -20 -20 -20 -20 -20 -20 -20 -20
	// simulations: 1
}

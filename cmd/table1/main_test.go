package main

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/evaluator"
	"repro/internal/space"
)

// TestObtainTraceKeysBySizeAndSeed: a trace directory shared by runs of
// different sizes or seeds must record a new trace for each, and load
// only the one recorded for the same benchmark, size and seed.
func TestObtainTraceKeysBySizeAndSeed(t *testing.T) {
	recorded := 0
	sp := &bench.Spec{Name: "fir", Record: func(context.Context, uint64) (evaluator.Trace, error) {
		recorded++
		return evaluator.Trace{{Config: space.Config{recorded}, Lambda: -1}}, nil
	}}
	dir := t.TempDir()
	first := map[string]int{} // (size, seed) -> index of the recording it got
	for _, run := range []struct {
		size     string
		seed     uint64
		fromDisk bool
	}{
		{"small", 1, false},
		{"full", 1, false},
		{"small", 2, false},
		{"small", 1, true},
		{"full", 1, true},
		{"small", 2, true},
	} {
		trace, fromDisk, err := obtainTrace(context.Background(), sp, run.size, run.seed, dir)
		if err != nil {
			t.Fatal(err)
		}
		if fromDisk != run.fromDisk {
			t.Errorf("size %s seed %d: fromDisk = %v, want %v", run.size, run.seed, fromDisk, run.fromDisk)
		}
		key := fmt.Sprint(run.size, run.seed)
		if want, ok := first[key]; ok && trace[0].Config[0] != want {
			t.Errorf("size %s seed %d: got recording %d, want %d", run.size, run.seed, trace[0].Config[0], want)
		}
		first[key] = trace[0].Config[0]
	}
	if recorded != 3 {
		t.Errorf("recorded %d traces, want one per (size, seed)", recorded)
	}
}

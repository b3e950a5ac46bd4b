package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/evaluator"
	"repro/internal/kriging"
	"repro/internal/space"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {40, 75}, {100, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && c.n-int(math.Ceil(p/100*float64(c.n)-1e-9)) < minBeyond {
			t.Errorf("n=%d: p%v leaves fewer than %d samples beyond", c.n, p, minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{0: 1, 20: 1, 50: 3, 60: 3, 99: 5, 100: 5} {
		if got := percentile(append([]float64(nil), xs...), p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// The first request stalls 40ms; the ones due during the stall wait
	// behind it on the single connection, and their latency — measured
	// from when they were due — includes that wait.
	offs := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond, 60 * time.Millisecond}
	samples := openLoop(offs, 1, time.Second, func(i int) error {
		if i == 0 {
			time.Sleep(40 * time.Millisecond)
		}
		return nil
	})
	if l := samples[1].latency(); l < 30*time.Millisecond {
		t.Errorf("request due at 5ms waited behind the stall but latency is %v", l)
	}
	if samples[1].idle || samples[2].idle {
		t.Error("requests queued behind the stall were marked as waiting for their due time")
	}
	if !samples[3].idle || samples[3].latency() > 20*time.Millisecond {
		t.Errorf("request due after the stall: idle=%v latency %v", samples[3].idle, samples[3].latency())
	}
	if samples[3].start < samples[3].due {
		t.Errorf("request sent %v before it was due", samples[3].due-samples[3].start)
	}
}

func TestBacklogDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	service := time.Millisecond
	send := func(int) error { time.Sleep(service); return nil }
	// Two connections of ~1ms service handle well under 2000 req/s.
	light := openLoop(poissonOffsets(rng, 200, 100), 2, time.Second, send)
	if r := summarise(200, light, 20); r.backlog || r.unsent > 0 {
		t.Errorf("200 req/s flagged as backlogged: %+v", r)
	}
	// At 5000 req/s the queue grows for the whole rung.
	heavy := openLoop(poissonOffsets(rng, 5000, 1000), 2, 10*time.Second, send)
	r := summarise(5000, heavy, 20)
	if !r.backlog {
		t.Errorf("5000 req/s against ~2000 req/s capacity not flagged: growth %.1fms", queueGrowth(heavy))
	}
	if r.pass(20) {
		t.Error("overloaded rung passed")
	}
	// Requests still unsent at the cutoff count as a backlog.
	cut := openLoop(poissonOffsets(rng, 5000, 500), 2, 20*time.Millisecond, send)
	if r := summarise(5000, cut, 1e9); r.unsent == 0 || !r.backlog {
		t.Errorf("cutoff left %d unsent, backlog %v", r.unsent, r.backlog)
	}
}

func TestMaxRateInterpolatesTheKnee(t *testing.T) {
	rungs := []rungStats{{rate: 1000, tail: 1}, {rate: 2000, tail: 2}, {rate: 3000, tail: 6}}
	if got := maxRate(rungs, 4); got != 2500 {
		t.Errorf("maxRate = %v, want 2500 (limit halfway between the 2000 and 3000 tails)", got)
	}
	if got := maxRate(rungs[:2], 4); got != 2000 {
		t.Errorf("all rungs passing: maxRate = %v, want 2000", got)
	}
	backlogged := []rungStats{{rate: 1000, tail: 1}, {rate: 2000, tail: 1, backlog: true}}
	if got := maxRate(backlogged, 4); got != 1000 {
		t.Errorf("backlogged rung: maxRate = %v, want 1000", got)
	}
}

func TestSelfTimesSubtractOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 10, parent: -1},
		{name: "a", start: 1, end: 5, parent: 0},
		{name: "b", start: 3, end: 8, parent: 0},
	}
	got := selfTimes(spans)
	// The root runs alone on [0,1) and [8,10): children cover the union
	// [1,8), not the 9 units their durations sum to. a and b share
	// [3,5) equally.
	want := []float64{3, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("self times %v, want %v", got, want)
		}
	}
}

func TestSelfTimesClipAndSumToRoot(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "call", start: 10, end: 50, parent: 0},
		{name: "sim", start: 20, end: 70, parent: 1}, // outlives its parent
		{name: "sim", start: 30, end: 40, parent: 1},
		{name: "other", start: 200, end: 210, parent: -1},
	}
	self := selfTimes(spans)
	var tree float64
	for _, v := range self[:4] {
		tree += v
	}
	if tree != 100 || self[4] != 10 {
		t.Fatalf("self times %v: tree sums to %v, want 100", self, tree)
	}
	if self[1] != 10 { // call runs alone on [10,20)
		t.Errorf("call self %v, want 10", self[1])
	}
	if self[2] != 25 || self[3] != 5 { // [20,30) and [40,50) alone, [30,40) split
		t.Errorf("sim self %v, %v; want 25, 5", self[2], self[3])
	}
}

func TestTracedInterpForwardsOptionalInterfaces(t *testing.T) {
	tr, kc := newTracer(), newInterpCounts()
	full := newTracedInterp(&kriging.Ordinary{}, tr, kc)
	if _, ok := full.(evaluator.BatchPredictor); !ok {
		t.Error("decorated Ordinary hides BatchPredictor")
	}
	if _, ok := full.(evaluator.VariancePredictor); !ok {
		t.Error("decorated Ordinary hides VariancePredictor")
	}
	if _, ok := full.(evaluator.BatchVariancePredictor); !ok {
		t.Error("decorated Ordinary hides BatchVariancePredictor")
	}
	plain := newTracedInterp(&kriging.IDW{}, tr, kc)
	if _, ok := plain.(evaluator.BatchPredictor); ok {
		t.Error("decorated IDW claims BatchPredictor")
	}

	xs := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
	ys := []float64{1, 2, 3, 5}
	q := [][]float64{{0.5, 0.5}, {0.2, 0.7}}
	want, err := (&kriging.Ordinary{}).Predict(xs, ys, q[0])
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := full.Predict(xs, ys, q[0]); got != want {
		t.Errorf("Predict through decorator %v, want %v", got, want)
	}
	out := make([]float64, 2)
	if err := full.(evaluator.BatchPredictor).PredictBatch(xs, ys, q, out); err != nil || out[0] != want {
		t.Errorf("PredictBatch through decorator %v (%v), want %v first", out, err, want)
	}
	if kc.predicts.Load() != 1 || kc.batches.Load() != 1 || kc.cols.Load() != 2 {
		t.Errorf("counts: predicts %d batches %d cols %d", kc.predicts.Load(), kc.batches.Load(), kc.cols.Load())
	}
}

func TestTracedEvaluatorKeepsBatchPath(t *testing.T) {
	// A min+1-style round: every candidate shares one kriging support,
	// so EvaluateAll serves them through one blocked solve — with or
	// without the decorator.
	sp, err := bench.SpecByName("iir", bench.Small)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sp.NewSimulator(1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(interp kriging.Interpolator) evaluator.Stats {
		opts := wloptOptions()
		opts.Interp = interp
		ev, err := evaluator.New(sim, opts)
		if err != nil {
			t.Fatal(err)
		}
		base := space.Config{10, 10, 10, 10, 10}
		var seed []space.Config
		for i := range base {
			seed = append(seed, base.With(i, 12), base.With(i, 8))
		}
		if _, err := ev.EvaluateAll(seed, 2); err != nil {
			t.Fatal(err)
		}
		var round []space.Config
		for i := range base {
			round = append(round, base.With(i, 11))
		}
		ev.ResetStats()
		if _, err := ev.EvaluateAll(round, 2); err != nil {
			t.Fatal(err)
		}
		return ev.Stats()
	}
	plain := run(&kriging.Ordinary{})
	traced := run(newTracedInterp(&kriging.Ordinary{}, newTracer(), newInterpCounts()))
	if plain.NBatchPredict == 0 {
		t.Fatal("the round did not take the batch path at all")
	}
	if traced.NBatchPredict != plain.NBatchPredict || traced.NInterp != plain.NInterp || traced.NSim != plain.NSim {
		t.Errorf("decorated stats %+v differ from plain %+v", traced, plain)
	}
	if math.IsNaN(traced.MeanNeighbors()) {
		t.Error("NaN support size")
	}
}

package evaluator

import (
	"errors"
	"math"
	"testing"

	"repro/internal/kriging"
	"repro/internal/space"
)

// walkTrace builds the canonical 1-D descent trajectory: configurations
// (k) for k = n-1 .. 0 with a linear field λ = 2k (in one variable,
// embedded in 2-D with the second coordinate fixed).
func walkTrace(n int) Trace {
	var tr Trace
	for k := n - 1; k >= 0; k-- {
		tr = append(tr, TracePoint{
			Config: space.Config{k, 0},
			Lambda: float64(2 * k),
		})
	}
	return tr
}

func TestReplayDecisionPatternD2(t *testing.T) {
	// The sequential decision rule with d=2, NnMin=1 on a unit-step walk
	// interpolates exactly every third point: sim, sim, krige, sim, sim,
	// krige, ... — the pattern behind the paper's FIR p(d=2) = 33.33%.
	tr := walkTrace(12)
	row, err := Replay(tr, Options{D: 2, NnMin: 1, Interp: &kriging.Ordinary{}}, ErrorRelative)
	if err != nil {
		t.Fatal(err)
	}
	if row.N != 12 {
		t.Fatalf("N = %d", row.N)
	}
	if row.NInterp != 4 { // points 3, 6, 9, 12 of the walk
		t.Errorf("NInterp = %d, want 4", row.NInterp)
	}
	if math.Abs(row.Percent-100.0/3) > 1 {
		t.Errorf("p%% = %v, want ~33.3", row.Percent)
	}
}

func TestReplayPercentGrowsWithD(t *testing.T) {
	tr := walkTrace(30)
	var prev float64 = -1
	for _, d := range []float64{2, 3, 4, 5} {
		row, err := Replay(tr, Options{D: d, NnMin: 1, Interp: &kriging.Ordinary{}}, ErrorRelative)
		if err != nil {
			t.Fatal(err)
		}
		if row.Percent < prev {
			t.Errorf("p%% not monotone in d: %v after %v", row.Percent, prev)
		}
		prev = row.Percent
	}
}

func TestReplayLinearFieldSmallError(t *testing.T) {
	// ModePaper brackets each interpolated point, so a linear field is
	// reconstructed almost exactly.
	tr := walkTrace(20)
	row, err := Replay(tr, Options{D: 3, NnMin: 1, Interp: &kriging.Ordinary{}}, ErrorRelative)
	if err != nil {
		t.Fatal(err)
	}
	if row.NInterp == 0 {
		t.Fatal("nothing interpolated")
	}
	if row.MeanEps > 0.05 {
		t.Errorf("mean relative error %v too large for a linear field", row.MeanEps)
	}
}

func TestReplayModesDiffer(t *testing.T) {
	// On a curved field the live mode (frontier extrapolation) must be
	// worse than the paper mode (bracketing supports).
	var tr Trace
	for k := 19; k >= 0; k-- {
		tr = append(tr, TracePoint{
			Config: space.Config{k},
			Lambda: -math.Exp2(-float64(k)), // λ = -P, P = 2^-k
		})
	}
	opts := Options{
		D: 3, NnMin: 1,
		Interp:      &kriging.Ordinary{},
		Transform:   NegPowerToDB,
		Untransform: DBToNegPower,
	}
	paper, err := ReplayModed(tr, opts, ErrorBits, ModePaper)
	if err != nil {
		t.Fatal(err)
	}
	live, err := ReplayModed(tr, opts, ErrorBits, ModeLive)
	if err != nil {
		t.Fatal(err)
	}
	if paper.NInterp != live.NInterp {
		t.Errorf("decision pass must not depend on mode: %d vs %d", paper.NInterp, live.NInterp)
	}
	if paper.MeanNeigh <= live.MeanNeigh {
		t.Errorf("paper-mode support (%v) should exceed live support (%v)", paper.MeanNeigh, live.MeanNeigh)
	}
}

func TestReplayFinalSimMode(t *testing.T) {
	tr := walkTrace(15)
	row, err := ReplayModed(tr, Options{D: 2, NnMin: 1, Interp: &kriging.Ordinary{}}, ErrorRelative, ModeFinalSim)
	if err != nil {
		t.Fatal(err)
	}
	if row.NInterp == 0 || row.NSim == 0 {
		t.Errorf("degenerate split: %+v", row)
	}
}

func TestReplayDeduplicates(t *testing.T) {
	tr := walkTrace(6)
	tr = append(tr, tr[0], tr[1]) // revisits
	row, err := Replay(tr, Options{D: 2, NnMin: 1, Interp: &kriging.Ordinary{}}, ErrorRelative)
	if err != nil {
		t.Fatal(err)
	}
	if row.N != 6 {
		t.Errorf("N = %d, want 6 distinct", row.N)
	}
}

func TestReplayMaxSupportCap(t *testing.T) {
	tr := walkTrace(30)
	row, err := Replay(tr, Options{D: 5, NnMin: 1, MaxSupport: 3, Interp: &kriging.Ordinary{}}, ErrorRelative)
	if err != nil {
		t.Fatal(err)
	}
	if row.MeanNeigh > 3 {
		t.Errorf("j̄ = %v exceeds cap 3", row.MeanNeigh)
	}
}

func TestReplayErrorBitsKind(t *testing.T) {
	var tr Trace
	for k := 14; k >= 0; k-- {
		tr = append(tr, TracePoint{
			Config: space.Config{k},
			Lambda: -math.Exp2(-2 * float64(k)),
		})
	}
	row, err := Replay(tr, Options{
		D: 2, NnMin: 1,
		Interp:      &kriging.Ordinary{},
		Transform:   NegPowerToDB,
		Untransform: DBToNegPower,
	}, ErrorBits)
	if err != nil {
		t.Fatal(err)
	}
	if row.ErrKind != ErrorBits {
		t.Error("kind not propagated")
	}
	if row.NInterp > 0 && row.MeanEps > 1 {
		t.Errorf("mean ε = %v bits on a log-linear field", row.MeanEps)
	}
}

func TestReplayDefaultInterpolator(t *testing.T) {
	// Replay takes its default interpolator from New, like every other
	// entry point: a nil Interp is ordinary kriging.
	tr := walkTrace(20)
	for _, mode := range []ReplayMode{ModePaper, ModeFinalSim, ModeLive} {
		def, err := ReplayModed(tr, Options{D: 3, NnMin: 1}, ErrorRelative, mode)
		if err != nil {
			t.Fatal(err)
		}
		ord, err := ReplayModed(tr, Options{D: 3, NnMin: 1, Interp: &kriging.Ordinary{}}, ErrorRelative, mode)
		if err != nil {
			t.Fatal(err)
		}
		if def != ord {
			t.Errorf("%v: nil Interp row %+v, ordinary kriging row %+v", mode, def, ord)
		}
	}
}

// refusingInterp is ordinary kriging that refuses every query whose
// coordinate sum is divisible by 5. The refusal depends on the query
// alone, so it does not matter in which order kriging systems are built.
type refusingInterp struct{ o kriging.Ordinary }

func (r *refusingInterp) Predict(xs [][]float64, ys []float64, x []float64) (float64, error) {
	var sum float64
	for _, v := range x {
		sum += v
	}
	if math.Mod(sum, 5) == 0 {
		return 0, errors.New("refused")
	}
	return r.o.Predict(xs, ys, x)
}

func (r *refusingInterp) Name() string { return "refusing" }

// lattice2D walks an n×n grid row by row, reversing every other row, on
// a smooth field.
func lattice2D(n int) Trace {
	var tr Trace
	for i := 0; i < n; i++ {
		for jj := 0; jj < n; jj++ {
			j := jj
			if i%2 == 1 {
				j = n - 1 - jj
			}
			tr = append(tr, TracePoint{
				Config: space.Config{i, j},
				Lambda: float64(i*i) + 3*float64(j) + 1,
			})
		}
	}
	return tr
}

func TestReplayCountsLikeLiveEvaluatorWhenKrigingFails(t *testing.T) {
	// A refused kriging system makes a live evaluator simulate and store
	// the point; the replay must count it the same way, in every mode.
	tr := lattice2D(8)
	truth := make(map[string]float64, len(tr))
	for _, tp := range tr {
		truth[tp.Config.Key()] = tp.Lambda
	}
	opts := Options{D: 2, NnMin: 1, MaxSupport: 10, Interp: &refusingInterp{}}
	ev, err := New(SimulatorFunc{NumVars: 2, Fn: func(c space.Config) (float64, error) {
		return truth[c.Key()], nil
	}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range tr {
		mustEval(t, ev, tp.Config)
	}
	st := ev.Stats()
	if st.NKrigFallback == 0 || st.NInterp == 0 {
		t.Fatalf("trace exercises nothing: %+v", st)
	}
	for _, mode := range []ReplayMode{ModePaper, ModeFinalSim, ModeLive} {
		row, err := ReplayModed(tr, opts, ErrorRelative, mode)
		if err != nil {
			t.Fatal(err)
		}
		if row.NInterp != st.NInterp || row.NSim != st.NSim || row.KrigFailures != st.NKrigFallback {
			t.Errorf("%v: replay NInterp/NSim/KrigFailures = %d/%d/%d, live evaluator %d/%d/%d",
				mode, row.NInterp, row.NSim, row.KrigFailures, st.NInterp, st.NSim, st.NKrigFallback)
		}
	}
}

func TestReplayRejectsUnknownMode(t *testing.T) {
	if _, err := ReplayModed(walkTrace(3), Options{D: 2}, ErrorRelative, ReplayMode(7)); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestReplayValidatesOptions(t *testing.T) {
	if _, err := Replay(walkTrace(3), Options{D: -1, Interp: &kriging.Ordinary{}}, ErrorRelative); err == nil {
		t.Error("negative distance accepted")
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	row, err := Replay(nil, Options{D: 2, Interp: &kriging.Ordinary{}}, ErrorRelative)
	if err != nil {
		t.Fatal(err)
	}
	if row.N != 0 || row.Percent != 0 {
		t.Errorf("empty trace row: %+v", row)
	}
}

func TestRecordingSimulator(t *testing.T) {
	inner := SimulatorFunc{NumVars: 1, Fn: func(c space.Config) (float64, error) {
		return float64(c[0]), nil
	}}
	rec := &RecordingSimulator{Inner: inner}
	if _, err := rec.Evaluate(space.Config{3}); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Evaluate(space.Config{5}); err != nil {
		t.Fatal(err)
	}
	if len(rec.Trace) != 2 || rec.Trace[1].Lambda != 5 {
		t.Errorf("trace: %+v", rec.Trace)
	}
	if rec.Nv() != 1 {
		t.Error("Nv passthrough")
	}
}

func TestCachingSimulator(t *testing.T) {
	calls := 0
	inner := SimulatorFunc{NumVars: 1, Fn: func(c space.Config) (float64, error) {
		calls++
		return float64(c[0]), nil
	}}
	cache := NewCachingSimulator(inner)
	for i := 0; i < 3; i++ {
		v, err := cache.Evaluate(space.Config{7})
		if err != nil || v != 7 {
			t.Fatalf("eval: %v, %v", v, err)
		}
	}
	if calls != 1 {
		t.Errorf("inner called %d times, want 1", calls)
	}
	if cache.Misses() != 1 {
		t.Errorf("Misses = %d", cache.Misses())
	}
	if cache.Nv() != 1 {
		t.Error("Nv passthrough")
	}
}

func TestTransformPairs(t *testing.T) {
	for _, lambda := range []float64{-1e-3, -1e-9, -42} {
		if got := DBToNegPower(NegPowerToDB(lambda)); math.Abs(got-lambda) > 1e-12*math.Abs(lambda) {
			t.Errorf("NegPower round trip at %v: %v", lambda, got)
		}
	}
	if NegPowerToDB(0) < 1000 {
		t.Error("zero noise power should map to a huge accuracy")
	}
	if ClampProb(-0.5) != 0 || ClampProb(1.5) != 1 || ClampProb(0.3) != 0.3 {
		t.Error("ClampProb wrong")
	}
	if Identity(3.7) != 3.7 {
		t.Error("Identity wrong")
	}
}

func TestModeStrings(t *testing.T) {
	if ModePaper.String() != "paper" || ModeFinalSim.String() != "finalsim" || ModeLive.String() != "live" {
		t.Error("mode names")
	}
}

func TestErrorKindStrings(t *testing.T) {
	if ErrorBits.String() != "bits" || ErrorRelative.String() != "relative" {
		t.Error("kind names")
	}
}

package bench

import (
	"context"
	"strings"
	"testing"

	"repro/internal/evaluator"
	"repro/internal/kriging"
	"repro/internal/metrics"
	"repro/internal/space"
	"repro/internal/variogram"
)

func TestSpecRegistry(t *testing.T) {
	specs, err := AllSpecs(Small)
	if err != nil {
		t.Fatal(err)
	}
	wantNv := map[string]int{"fir": 2, "iir": 5, "fft": 10, "hevc": 23, "squeezenet": 10}
	if len(specs) != len(wantNv) {
		t.Fatalf("got %d specs", len(specs))
	}
	for _, sp := range specs {
		if wantNv[sp.Name] != sp.Nv {
			t.Errorf("%s: Nv = %d, want %d", sp.Name, sp.Nv, wantNv[sp.Name])
		}
		if sp.Record == nil || sp.NewSimulator == nil {
			t.Errorf("%s: missing hooks", sp.Name)
		}
		if err := sp.Bounds.Validate(); err != nil {
			t.Errorf("%s bounds: %v", sp.Name, err)
		}
	}
}

func TestSpecByName(t *testing.T) {
	sp, err := SpecByName("fft", Small)
	if err != nil || sp.Name != "fft" {
		t.Errorf("SpecByName(fft) = %v, %v", sp, err)
	}
	if _, err := SpecByName("nope", Small); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// firResult caches the FIR Table I block; recording the trajectory is the
// slow part and several tests inspect the same rows.
var firResult *BenchmarkResult

func getFIRResult(t *testing.T) *BenchmarkResult {
	t.Helper()
	if firResult != nil {
		return firResult
	}
	sp, err := NewFIRSpec(Small)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBenchmark(context.Background(), sp, Table1Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	firResult = res
	return res
}

func TestTable1FIRShape(t *testing.T) {
	res := getFIRResult(t)
	if res.TraceLen == 0 {
		t.Fatal("empty trajectory")
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	prevP := -1.0
	for _, row := range res.Rows {
		if row.Percent < 0 || row.Percent > 100 {
			t.Errorf("d=%v: p%% = %v", row.D, row.Percent)
		}
		if row.Percent < prevP {
			t.Errorf("p%% not monotone in d: %v after %v", row.Percent, prevP)
		}
		prevP = row.Percent
		if row.NInterp+row.NSim != row.N {
			t.Errorf("d=%v: NInterp+NSim != N", row.D)
		}
		if row.NInterp > 0 && row.MeanNeigh < 2 {
			t.Errorf("d=%v: j̄ = %v < 2", row.D, row.MeanNeigh)
		}
		if row.MaxEps < row.MeanEps {
			t.Errorf("d=%v: max ε %v < mean ε %v", row.D, row.MaxEps, row.MeanEps)
		}
	}
	// The paper's headline: at a tight distance, a third or more of the
	// configurations can be interpolated with sub-bit mean error.
	if res.Rows[0].Percent < 20 {
		t.Errorf("p%% at d=2 = %v, expected ≳ 33", res.Rows[0].Percent)
	}
	if res.Rows[0].MeanEps > 1 {
		t.Errorf("mean ε at d=2 = %v bits, expected < 1", res.Rows[0].MeanEps)
	}
}

func TestReplayTraceVariants(t *testing.T) {
	res := getFIRResult(t)
	// Linear-domain replay must run and typically degrades the error.
	lin, err := ReplayTrace(res.Spec, res.Trajectory, Table1Options{LinearDomain: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(lin.Rows) != 4 {
		t.Fatal("linear replay rows")
	}
	// Same decisions, identical p%.
	for i := range lin.Rows {
		if lin.Rows[i].Percent != res.Rows[i].Percent {
			t.Errorf("domain change altered the decision pass at d=%v", lin.Rows[i].D)
		}
	}
	// Custom interpolator.
	idw, err := ReplayTrace(res.Spec, res.Trajectory, Table1Options{Interp: &kriging.IDW{}})
	if err != nil {
		t.Fatal(err)
	}
	if idw.Rows[0].NInterp != res.Rows[0].NInterp {
		t.Error("interpolator change altered the decision pass")
	}
	// Live mode runs.
	live, err := ReplayTrace(res.Spec, res.Trajectory, Table1Options{Mode: evaluator.ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	if live.Rows[0].N != res.Rows[0].N {
		t.Error("mode change altered N")
	}
}

// TestReplayLiveMatchesLiveEvaluator pins ModeLive's contract: its row
// is what a separately built live evaluator reports when fed the same
// trace values in trace order.
func TestReplayLiveMatchesLiveEvaluator(t *testing.T) {
	for _, name := range []string{"fir", "iir"} {
		sp, err := SpecByName(name, Small)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := sp.Record(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ReplayTrace(sp, trace, Table1Options{Mode: evaluator.ModeLive})
		if err != nil {
			t.Fatal(err)
		}
		truth := make(map[string]float64, len(trace))
		for _, tp := range trace {
			truth[tp.Config.Key()] = tp.Lambda
		}
		for _, row := range res.Rows {
			opts := evaluator.Options{D: row.D, NnMin: 1, MaxSupport: 10, Interp: &kriging.Ordinary{}}
			applyDefaultDomain(sp, &opts)
			ev, err := evaluator.New(evaluator.SimulatorFunc{NumVars: sp.Nv, Fn: func(c space.Config) (float64, error) {
				return truth[c.Key()], nil
			}}, opts)
			if err != nil {
				t.Fatal(err)
			}
			var eps metrics.Summary
			seen := make(map[string]bool, len(trace))
			for _, tp := range trace {
				if seen[tp.Config.Key()] {
					continue
				}
				seen[tp.Config.Key()] = true
				r, err := ev.Evaluate(tp.Config)
				if err != nil {
					t.Fatal(err)
				}
				if r.Source == evaluator.Interpolated {
					eps.Add(metrics.EpsilonBits(-r.Lambda, -tp.Lambda))
				}
			}
			st := ev.Stats()
			if st.NInterp == 0 {
				t.Errorf("%s d=%v: nothing kriged", name, row.D)
			}
			if row.Percent != st.PercentInterpolated() || row.MeanNeigh != st.MeanNeighbors() ||
				row.MaxEps != eps.Max() || row.MeanEps != eps.Mean() {
				t.Errorf("%s d=%v: replay p=%v j=%v max=%v mean=%v, live evaluator p=%v j=%v max=%v mean=%v",
					name, row.D, row.Percent, row.MeanNeigh, row.MaxEps, row.MeanEps,
					st.PercentInterpolated(), st.MeanNeighbors(), eps.Max(), eps.Mean())
			}
		}
	}
}

func TestAblateNnMin(t *testing.T) {
	res := getFIRResult(t)
	rows, err := AblateNnMin(res.Spec, res.Trajectory, 3, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Raising Nn,min can only shrink the interpolated share (the paper's
	// observation about Nn,min = 2).
	for i := 1; i < len(rows); i++ {
		if rows[i].Row.Percent > rows[i-1].Row.Percent+1e-9 {
			t.Errorf("p%% grew from NnMin=%d to NnMin=%d", i, i+1)
		}
	}
}

func TestAblateVariogram(t *testing.T) {
	res := getFIRResult(t)
	kinds := []variogram.Kind{variogram.Power, variogram.Linear, variogram.Spherical, variogram.Exponential, variogram.Gaussian}
	rows, err := AblateVariogram(res.Spec, res.Trajectory, 3, kinds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(kinds) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Row.NInterp == 0 {
			t.Errorf("%s interpolated nothing", r.Variant)
		}
	}
}

func TestAblateInterpolator(t *testing.T) {
	res := getFIRResult(t)
	rows, err := AblateInterpolator(res.Spec, res.Trajectory, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !strings.Contains(rows[0].Variant, "ordinary-kriging") {
		t.Errorf("first variant = %s", rows[0].Variant)
	}
	if RenderAblation(rows) == "" {
		t.Error("empty ablation rendering")
	}
}

func TestMeasureSpeedup(t *testing.T) {
	res := getFIRResult(t)
	sp, err := NewFIRSpec(Small)
	if err != nil {
		t.Fatal(err)
	}
	row, err := MeasureSpeedup(context.Background(), sp, res, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row.N != row.NSim+row.NInterp {
		t.Error("speed-up counts inconsistent")
	}
	if row.TSim <= 0 || row.TInterp <= 0 {
		t.Error("timings not measured")
	}
	if row.Speedup <= 0 {
		t.Errorf("speed-up = %v", row.Speedup)
	}
	if RenderSpeedup([]SpeedupRow{row}) == "" {
		t.Error("empty speed-up rendering")
	}
	if _, err := MeasureSpeedup(context.Background(), sp, res, 99, 1); err == nil {
		t.Error("missing distance accepted")
	}
}

func TestRenderTable1(t *testing.T) {
	res := getFIRResult(t)
	out := RenderTable1([]*BenchmarkResult{res})
	if !strings.Contains(out, "fir") || !strings.Contains(out, "Noise Power") {
		t.Errorf("rendering missing fields:\n%s", out)
	}
}

// monotonicViolations counts the (i, j) cells of s whose noise power is
// lower (better) than a cell with strictly more bits in both dimensions.
// Small counts are expected (truncation noise is not perfectly
// monotone); large counts would indicate a datapath bug.
func monotonicViolations(s *Surface) int {
	v := 0
	for i := 0; i+1 < len(s.WMul); i++ {
		for j := 0; j+1 < len(s.WAdd); j++ {
			if s.PowerDB[i+1][j+1] > s.PowerDB[i][j]+1e-9 {
				v++
			}
		}
	}
	return v
}

func TestFigure1SurfaceShape(t *testing.T) {
	s, err := RunFigure1(context.Background(), Figure1Options{Seed: 1, Samples: 256, MinWL: 3, MaxWL: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.WMul) != 8 || len(s.PowerDB) != 8 {
		t.Fatalf("surface dims %dx%d", len(s.WMul), len(s.PowerDB))
	}
	// The corner with most bits must be the quietest overall region:
	// compare the two extreme corners.
	if s.PowerDB[len(s.PowerDB)-1][len(s.WAdd)-1] >= s.PowerDB[0][0] {
		t.Errorf("noise at (max,max) = %v dB not below (min,min) = %v dB",
			s.PowerDB[len(s.PowerDB)-1][len(s.WAdd)-1], s.PowerDB[0][0])
	}
	// The surface should be close to monotone.
	cells := (len(s.WMul) - 1) * (len(s.WAdd) - 1)
	if v := monotonicViolations(s); v > cells/10 {
		t.Errorf("monotonicity violations: %d of %d", v, cells)
	}
	csv := s.RenderCSV()
	if !strings.Contains(csv, "wmul\\wadd") || len(strings.Split(csv, "\n")) < 9 {
		t.Error("CSV rendering malformed")
	}
}

func TestFigure1Validation(t *testing.T) {
	if _, err := RunFigure1(context.Background(), Figure1Options{MinWL: 9, MaxWL: 3}); err == nil {
		t.Error("inverted range accepted")
	}
}

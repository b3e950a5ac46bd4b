package repro

// bench_test.go regenerates every table and figure of the paper's
// evaluation as Go benchmarks:
//
//	BenchmarkTable1FIR / IIR / FFT / HEVC / SqueezeNet — the five blocks
//	  of Table I (p%, j̄, max ε, µε at d = 2..5), printed via b.Log.
//	BenchmarkFigure1Surface — the FIR noise-power surface of Figure 1.
//	BenchmarkSpeedupModel — the Eq. 2 total-optimisation-time model.
//	BenchmarkAblation* — the Nn,min / variogram / interpolator studies.
//	Benchmark{KrigingPredict, FIRSimulation, ...} — the microbenchmarks
//	  behind t_i and t_o in Eq. 2.
//
// Trace recording (the expensive, simulation-only part) happens once per
// benchmark outside the timed region; the timed region is the kriging
// replay itself.

import (
	"context"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/evaluator"
	"repro/internal/hevc"
	"repro/internal/kriging"
	"repro/internal/nn"
	"repro/internal/signal"
	"repro/internal/space"
	"repro/internal/variogram"
)

var (
	traceMu    sync.Mutex
	traceCache = map[string]*bench.BenchmarkResult{}
)

// recordedResult records (once) and replays the named benchmark.
func recordedResult(b *testing.B, name string) (*bench.Spec, *bench.BenchmarkResult) {
	b.Helper()
	traceMu.Lock()
	defer traceMu.Unlock()
	sp, err := bench.SpecByName(name, bench.Small)
	if err != nil {
		b.Fatal(err)
	}
	if res, ok := traceCache[name]; ok {
		return sp, res
	}
	res, err := bench.RunBenchmark(context.Background(), sp, bench.Table1Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	traceCache[name] = res
	return sp, res
}

func benchTable1(b *testing.B, name string) {
	sp, res := recordedResult(b, name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rerun, err := bench.ReplayTrace(sp, res.Trajectory, bench.Table1Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + bench.RenderTable1([]*bench.BenchmarkResult{rerun}))
		}
	}
}

func BenchmarkTable1FIR(b *testing.B)        { benchTable1(b, "fir") }
func BenchmarkTable1IIR(b *testing.B)        { benchTable1(b, "iir") }
func BenchmarkTable1FFT(b *testing.B)        { benchTable1(b, "fft") }
func BenchmarkTable1HEVC(b *testing.B)       { benchTable1(b, "hevc") }
func BenchmarkTable1SqueezeNet(b *testing.B) { benchTable1(b, "squeezenet") }

func BenchmarkFigure1Surface(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := bench.RunFigure1(context.Background(), bench.Figure1Options{Seed: 1, Samples: 256, MinWL: 4, MaxWL: 12})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + s.RenderCSV())
		}
	}
}

func BenchmarkSpeedupModel(b *testing.B) {
	var rows []bench.SpeedupRow
	for _, name := range []string{"fir", "iir", "fft"} {
		sp, res := recordedResult(b, name)
		b.ResetTimer()
		row, err := bench.MeasureSpeedup(context.Background(), sp, res, 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		rows = append(rows, row)
	}
	b.Log("\n" + bench.RenderSpeedup(rows))
	for i := 0; i < b.N; i++ {
		sp, res := recordedResult(b, "fir")
		if _, err := bench.MeasureSpeedup(context.Background(), sp, res, 3, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNnMin(b *testing.B) {
	sp, res := recordedResult(b, "fir")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblateNnMin(sp, res.Trajectory, 3, []int{1, 2, 3})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + bench.RenderAblation(rows))
		}
	}
}

func BenchmarkAblationVariogram(b *testing.B) {
	sp, res := recordedResult(b, "fft")
	kinds := []variogram.Kind{variogram.Power, variogram.Linear, variogram.Spherical, variogram.Exponential, variogram.Gaussian}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblateVariogram(sp, res.Trajectory, 3, kinds)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + bench.RenderAblation(rows))
		}
	}
}

func BenchmarkAblationInterpolator(b *testing.B) {
	sp, res := recordedResult(b, "fir")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblateInterpolator(sp, res.Trajectory, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + bench.RenderAblation(rows))
		}
	}
}

// BenchmarkScalingStudy regenerates the p%-versus-Nv trend of Section IV
// ("when the number of variables increases ... the number of
// configurations that can be estimated increases") from the cached
// trajectories at d = 3.
func BenchmarkScalingStudy(b *testing.B) {
	names := []string{"fir", "iir", "fft", "hevc"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rows []bench.ScalingRow
		for _, name := range names {
			sp, res := recordedResult(b, name)
			for _, row := range res.Rows {
				if row.D == 3 {
					rows = append(rows, bench.ScalingRow{
						Name: sp.Name, Nv: sp.Nv,
						Percent: row.Percent, MeanEps: row.MeanEps,
					})
				}
			}
		}
		if i == 0 {
			b.Log("\n" + bench.RenderScaling(rows, 3))
		}
	}
}

// --- Eq. 2 microbenchmarks: t_i (interpolation) and t_o (simulation) ---

func BenchmarkKrigingPredict(b *testing.B) {
	// One ordinary-kriging interpolation over 8 supports, the paper's
	// measured t_i ≈ 1 µs operation.
	xs := make([][]float64, 8)
	ys := make([]float64, 8)
	for i := range xs {
		xs[i] = []float64{float64(i), float64(i % 3)}
		ys[i] = float64(i * i)
	}
	o := &kriging.Ordinary{}
	q := []float64{3.5, 1.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Predict(xs, ys, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFIRSimulation(b *testing.B) {
	bm, err := signal.NewFIRBenchmark(1, 1024)
	if err != nil {
		b.Fatal(err)
	}
	cfg := space.Config{10, 12}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bm.NoisePower(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIIRSimulation(b *testing.B) {
	bm, err := signal.NewIIRBenchmark(1, 1024)
	if err != nil {
		b.Fatal(err)
	}
	cfg := space.Config{10, 10, 10, 10, 12}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bm.NoisePower(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFTSimulation(b *testing.B) {
	bm, err := signal.NewFFTBenchmark(1, 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := make(space.Config, bm.Nv())
	for i := range cfg {
		cfg[i] = 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bm.NoisePower(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHEVCSimulation cycles through one min+1 round, the incumbent
// and its 23 single-bit increments, so it measures the mix of horizontal
// passes recomputed and reused that a campaign sees: the vertical-node
// candidates share the incumbent's horizontal pass. BenchmarkSimulate/hevc
// in internal/bench is the all-miss row.
func BenchmarkHEVCSimulation(b *testing.B) {
	bm, err := hevc.NewBenchmark(1, 8)
	if err != nil {
		b.Fatal(err)
	}
	inc := make(space.Config, bm.Nv())
	for i := range inc {
		inc[i] = 9
	}
	round := []space.Config{inc}
	for j := range inc {
		round = append(round, inc.With(j, inc[j]+1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bm.NoisePower(round[i%len(round)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSqueezeNetSimulation(b *testing.B) {
	bm, err := nn.NewSensitivityBenchmark(1, 20)
	if err != nil {
		b.Fatal(err)
	}
	cfg := make(space.Config, bm.Nv())
	for i := range cfg {
		cfg[i] = 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bm.Evaluate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluatorQuery(b *testing.B) {
	// A full evaluator round trip on a pre-warmed store: neighbour
	// search + kriging.
	sim := evaluator.SimulatorFunc{NumVars: 2, Fn: func(c space.Config) (float64, error) {
		return -float64(c[0]) - float64(c[1]), nil
	}}
	ev, err := evaluator.New(sim, evaluator.Options{D: 3, NnMin: 1, MaxSupport: 10})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		ev.Store().Add(space.Config{i % 8, i / 8}, -float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// (8, 2) is never stored, so every query runs neighbour search
		// plus a kriging solve.
		if _, err := ev.Evaluate(space.Config{8, 2}); err != nil {
			b.Fatal(err)
		}
	}
}

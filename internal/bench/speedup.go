package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/evaluator"
	"repro/internal/kriging"
	"repro/internal/space"
)

// SpeedupRow models the total optimisation time of Eq. 2 with and without
// kriging for one benchmark at one distance:
//
//	t_sim-only = N · t_o
//	t_kriging  = N_sim · t_o + N_interp · t_i
//
// where t_o is the measured simulation time of one configuration and t_i
// the measured kriging interpolation time.
type SpeedupRow struct {
	Name    string
	D       float64
	N       int
	NSim    int
	NInterp int
	TSim    time.Duration // t_o
	TInterp time.Duration // t_i
	Speedup float64
}

// MeasureSpeedup times one real simulation and one kriging interpolation
// for the benchmark, then combines them with the replay counts at the
// given distance per Eq. 2.
func MeasureSpeedup(ctx context.Context, sp *Spec, res *BenchmarkResult, d float64, seed uint64) (SpeedupRow, error) {
	row := SpeedupRow{Name: sp.Name, D: d}
	var replay *evaluator.ReplayRow
	for i := range res.Rows {
		if res.Rows[i].D == d {
			replay = &res.Rows[i]
			break
		}
	}
	if replay == nil {
		return row, fmt.Errorf("bench: no replay row at d=%v for %s", d, sp.Name)
	}
	row.N = replay.N
	row.NSim = replay.NSim
	row.NInterp = replay.NInterp

	// Time t_o: one simulator evaluation at a mid-range configuration.
	sim, err := sp.NewSimulator(seed)
	if err != nil {
		return row, err
	}
	mid := make(space.Config, sp.Bounds.Dim())
	for i := range mid {
		mid[i] = (sp.Bounds.Lo[i] + sp.Bounds.Hi[i]) / 2
	}
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return row, err
	}
	if _, err := sim.Evaluate(mid); err != nil {
		return row, err
	}
	row.TSim = time.Since(start)

	// Time t_i: one kriging interpolation over a typical support drawn
	// from the recorded trajectory.
	support := len(res.Trajectory)
	if support > 8 {
		support = 8
	}
	if support < 2 {
		return row, errors.New("bench: trajectory too short to time interpolation")
	}
	xs := make([][]float64, support)
	ys := make([]float64, support)
	for i := 0; i < support; i++ {
		xs[i] = res.Trajectory[i].Config.Floats()
		ys[i] = res.Trajectory[i].Lambda
	}
	interp := &kriging.Ordinary{}
	const reps = 200
	start = time.Now()
	for r := 0; r < reps; r++ {
		if _, err := interp.Predict(xs, ys, mid.Floats()); err != nil {
			return row, err
		}
	}
	row.TInterp = time.Since(start) / reps

	simOnly := float64(row.N) * float64(row.TSim)
	withKriging := float64(row.NSim)*float64(row.TSim) + float64(row.NInterp)*float64(row.TInterp)
	if withKriging > 0 {
		row.Speedup = simOnly / withKriging
	}
	return row, nil
}

// RenderSpeedup renders speed-up rows as a text table.
func RenderSpeedup(rows []SpeedupRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %3s %6s %6s %8s %12s %12s %9s\n",
		"benchmark", "d", "Nsim", "Nkrig", "N", "t_o", "t_i", "speedup")
	b.WriteString(strings.Repeat("-", 74) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %3.0f %6d %6d %8d %12s %12s %8.2fx\n",
			r.Name, r.D, r.NSim, r.NInterp, r.N, r.TSim, r.TInterp, r.Speedup)
	}
	return b.String()
}

package bench

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/evaluator"
	"repro/internal/optim"
)

// The golden tests pin the paper's outputs — Table I rows, min+1
// campaign results and the Figure 1 surface — at full float precision
// against files under testdata/. A refactor of the kriging or evaluator
// internals must leave every byte of them unchanged; a mismatch prints
// the complete actual output so an intended change can be reviewed and
// pasted over the golden file.

// fmtFloat renders v at full precision (shortest round-trip form).
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// checkGolden compares got against testdata/name.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden %s: %v\n--- actual output (full) ---\n%s--- end actual output ---", path, err, got)
	}
	if string(want) != got {
		t.Errorf("%s mismatch\n--- actual output (full) ---\n%s--- end actual output ---", path, got)
	}
}

// TestGoldenTable1 pins every ReplayRow field of Table I for the FIR and
// IIR benchmarks (Small, seed 1).
func TestGoldenTable1(t *testing.T) {
	var b strings.Builder
	for _, name := range []string{"fir", "iir"} {
		sp, err := SpecByName(name, Small)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunBenchmark(context.Background(), sp, Table1Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Rows {
			fmt.Fprintf(&b, "%s D=%s N=%d NInterp=%d NSim=%d Percent=%s MeanNeigh=%s MaxEps=%s MeanEps=%s EpsInfCount=%d ErrKind=%d Decisions=%d KrigFailures=%d\n",
				name, fmtFloat(r.D), r.N, r.NInterp, r.NSim, fmtFloat(r.Percent), fmtFloat(r.MeanNeigh),
				fmtFloat(r.MaxEps), fmtFloat(r.MeanEps), r.EpsInfCount, r.ErrKind, r.Decisions, r.KrigFailures)
		}
	}
	checkGolden(t, "golden_table1.txt", b.String())
}

// TestGoldenCampaigns pins min+1 campaigns under cmd/wlopt's evaluator
// settings (D=3, NnMin=1, MaxSupport=10, dB-domain kriging, −40 dB,
// seed 1) for FIR and IIR, through the sequential Oracle(1) and the
// batched Oracle(4).
func TestGoldenCampaigns(t *testing.T) {
	var b strings.Builder
	for _, name := range []string{"fir", "iir"} {
		for _, workers := range []int{1, 4} {
			sp, err := SpecByName(name, Small)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := sp.NewSimulator(1)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := evaluator.New(sim, evaluator.Options{D: 3, NnMin: 1, MaxSupport: 10,
				Transform: evaluator.NegPowerToDB, Untransform: evaluator.DBToNegPower})
			if err != nil {
				t.Fatal(err)
			}
			res, err := optim.MinPlusOne(context.Background(), ev.Oracle(workers), optim.MinPlusOneOptions{
				LambdaMin: -math.Pow(10, -40.0/10),
				Bounds:    sp.Bounds,
			})
			if err != nil {
				t.Fatal(err)
			}
			st := ev.Stats()
			fmt.Fprintf(&b, "%s workers=%d wres=%v lambda=%s NSim=%d NInterp=%d SumNeigh=%d NBatchPredict=%d\n",
				name, workers, res.WRes, fmtFloat(res.Lambda), st.NSim, st.NInterp, st.SumNeigh, st.NBatchPredict)
		}
	}
	checkGolden(t, "golden_campaigns.txt", b.String())
}

// TestGoldenFigure1 pins the cmd/figure1 CSV (default options, seed 1)
// together with the surface it renders at full precision.
func TestGoldenFigure1(t *testing.T) {
	s, err := RunFigure1(context.Background(), Figure1Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(s.RenderCSV())
	b.WriteString("# full precision\n")
	for i, wm := range s.WMul {
		for j, wa := range s.WAdd {
			fmt.Fprintf(&b, "%d,%d,%s\n", wm, wa, fmtFloat(s.PowerDB[i][j]))
		}
	}
	checkGolden(t, "golden_figure1.txt", b.String())
}

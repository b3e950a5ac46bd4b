package bench

import (
	"context"
	"strings"
	"testing"
)

// reportString is WriteReport into a string.
func reportString(ctx context.Context, opts ReportOptions) (string, error) {
	var b strings.Builder
	if err := WriteReport(ctx, &b, opts); err != nil {
		return "", err
	}
	return b.String(), nil
}

func TestReportGeneratesAllSections(t *testing.T) {
	out, err := reportString(context.Background(), ReportOptions{
		Seed:        1,
		Size:        Small,
		Benchmarks:  []string{"fir"},
		AblateOn:    "fir",
		SkipSpeedup: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"## Table I",
		"## Ablations (fir, d = 3)",
		"| fir | Noise Power | 2 | 2 |",
		"NnMin=2",
		"variogram=power",
		"interp=idw",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "## Speed-up") {
		t.Error("speed-up section present despite SkipSpeedup")
	}
}

func TestReportWithSpeedup(t *testing.T) {
	out, err := reportString(context.Background(), ReportOptions{
		Seed:       1,
		Size:       Small,
		Benchmarks: []string{"fir"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "## Speed-up model") {
		t.Error("speed-up section missing")
	}
}

func TestScalingStudyOrdering(t *testing.T) {
	rows, err := ScalingStudy(context.Background(), []string{"iir", "fir"}, Small, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Nv > rows[1].Nv {
		t.Error("rows not sorted by Nv")
	}
	// The paper's trend: more variables, larger interpolated share.
	if rows[1].Percent <= rows[0].Percent {
		t.Errorf("p%% did not grow with Nv: %v -> %v", rows[0].Percent, rows[1].Percent)
	}
	if RenderScaling(rows, 3) == "" {
		t.Error("empty rendering")
	}
}

func TestScalingStudyUnknown(t *testing.T) {
	if _, err := ScalingStudy(context.Background(), []string{"nope"}, Small, 1, 3); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestReportUnknownBenchmark(t *testing.T) {
	if _, err := reportString(context.Background(), ReportOptions{Benchmarks: []string{"nope"}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestReportSeparateAblationBenchmark(t *testing.T) {
	// Ablating a benchmark not in the Table I subset must record its
	// trajectory on demand.
	out, err := reportString(context.Background(), ReportOptions{
		Seed:        1,
		Size:        Small,
		Benchmarks:  []string{"fir"},
		AblateOn:    "iir",
		SkipSpeedup: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "## Ablations (iir, d = 3)") {
		t.Error("iir ablation section missing")
	}
}

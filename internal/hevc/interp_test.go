package hevc

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/space"
)

func maxConfig(ip *Interp) space.Config {
	b := ip.Bounds()
	return b.Corner(true)
}

func constantWindow(v float64) [][]float64 {
	src := make([][]float64, window)
	for y := range src {
		src[y] = make([]float64, window)
		for x := range src[y] {
			src[y][x] = v
		}
	}
	return src
}

func TestFilterCoefficientsSumToOne(t *testing.T) {
	for i, f := range lumaFilters {
		var sum float64
		for _, c := range f {
			sum += c
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("filter %d DC gain = %v", i, sum)
		}
	}
}

func TestVariableNamesCount(t *testing.T) {
	ip := NewInterp()
	if ip.Nv() != 23 {
		t.Fatalf("Nv = %d, want 23 (the paper's variable count)", ip.Nv())
	}
	// The 23 variables in configuration order.
	want := []string{"input"}
	for i := 0; i < taps; i++ {
		want = append(want, fmt.Sprintf("h_prod%d", i))
	}
	want = append(want, "h_acc", "h_out", "inter")
	for i := 0; i < taps; i++ {
		want = append(want, fmt.Sprintf("v_prod%d", i))
	}
	want = append(want, "v_acc", "v_out", "output")
	if len(ip.path.Nodes) != len(want) {
		t.Fatalf("datapath has %d nodes, want %d", len(ip.path.Nodes), len(want))
	}
	for i, n := range ip.path.Nodes {
		if n.Name != want[i] {
			t.Errorf("node %d named %q, want %q", i, n.Name, want[i])
		}
	}
}

func TestReferenceConstantBlock(t *testing.T) {
	// Interpolating a constant field gives the same constant for every
	// fractional position (the filters have unit DC gain).
	ip := NewInterp()
	src := constantWindow(0.5)
	for fx := 0; fx <= 3; fx++ {
		for fy := 0; fy <= 3; fy++ {
			out, err := ip.Reference(src, MotionVector{FracX: fx, FracY: fy})
			if err != nil {
				t.Fatal(err)
			}
			for y := 0; y < BlockSize; y++ {
				for x := 0; x < BlockSize; x++ {
					if math.Abs(out[y][x]-0.5) > 1e-12 {
						t.Fatalf("frac (%d,%d): out[%d][%d] = %v", fx, fy, y, x, out[y][x])
					}
				}
			}
		}
	}
}

func TestReferenceIntegerPelCopies(t *testing.T) {
	ip := NewInterp()
	r := rng.New(1)
	src := dataset.Block(r, window, window, 0.999)
	out, err := ip.Reference(src, MotionVector{})
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			if out[y][x] != src[y+3][x+3] {
				t.Fatalf("integer-pel copy wrong at (%d,%d)", y, x)
			}
		}
	}
}

func TestReferenceLinearRamp(t *testing.T) {
	// The 8-tap filters reproduce affine fields exactly (they have unit
	// DC gain and odd moments matching linear interpolation at their
	// design points), so a horizontal ramp interpolated at 2/4 should
	// land halfway between neighbouring samples.
	ip := NewInterp()
	src := make([][]float64, window)
	for y := range src {
		src[y] = make([]float64, window)
		for x := range src[y] {
			src[y][x] = 0.01 * float64(x)
		}
	}
	out, err := ip.Reference(src, MotionVector{FracX: 2, FracY: 0})
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < BlockSize; x++ {
		want := 0.01 * (float64(x+3) + 0.5)
		if math.Abs(out[0][x]-want) > 1e-9 {
			t.Errorf("ramp at x=%d: %v, want %v", x, out[0][x], want)
		}
	}
}

func TestFixedApproachesReference(t *testing.T) {
	ip := NewInterp()
	r := rng.New(2)
	src := dataset.Block(r, window, window, 0.999)
	mv := MotionVector{FracX: 2, FracY: 1}
	ref, err := ip.Reference(src, mv)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ip.Fixed(maxConfig(ip), src, mv)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			if math.Abs(out[y][x]-ref[y][x]) > 1e-3 {
				t.Fatalf("14-bit fixed vs ref at (%d,%d): %v vs %v", y, x, out[y][x], ref[y][x])
			}
		}
	}
}

func TestFixedNoiseMonotone(t *testing.T) {
	b, err := NewBenchmark(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, w := range []int{4, 7, 10, 13} {
		cfg := make(space.Config, b.Nv())
		for i := range cfg {
			cfg[i] = w
		}
		p, err := b.NoisePower(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if p > prev*1.05 {
			t.Errorf("noise grew at w=%d: %v -> %v", w, prev, p)
		}
		prev = p
	}
}

func TestWindowValidation(t *testing.T) {
	ip := NewInterp()
	if _, err := ip.Reference(make([][]float64, 3), MotionVector{FracX: 1}); err == nil {
		t.Error("short window accepted")
	}
	bad := constantWindow(0)
	bad[4] = bad[4][:3]
	if _, err := ip.Reference(bad, MotionVector{FracX: 1}); err == nil {
		t.Error("ragged window accepted")
	}
	if _, err := ip.Fixed(maxConfig(ip), make([][]float64, 1), MotionVector{FracX: 1}); err == nil {
		t.Error("fixed short window accepted")
	}
}

func TestFractionValidation(t *testing.T) {
	if _, err := filterFor(0); err == nil {
		t.Error("fraction 0 has no filter and must error")
	}
	if _, err := filterFor(4); err == nil {
		t.Error("fraction 4 accepted")
	}
}

func TestFixedConfigValidation(t *testing.T) {
	ip := NewInterp()
	src := constantWindow(0.5)
	if _, err := ip.Fixed(space.Config{1, 2}, src, MotionVector{FracX: 1, FracY: 1}); err == nil {
		t.Error("short config accepted")
	}
}

func TestBenchmarkInterface(t *testing.T) {
	b, err := NewBenchmark(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "hevc" || b.Nv() != 23 {
		t.Errorf("Name/Nv: %s %d", b.Name(), b.Nv())
	}
	if err := b.Bounds().Validate(); err != nil {
		t.Error(err)
	}
	cfg := make(space.Config, 23)
	for i := range cfg {
		cfg[i] = 8
	}
	p, err := b.NoisePower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 {
		t.Error("noise power should be positive at 8 bits")
	}
}

func TestBenchmarkDeterminism(t *testing.T) {
	a, _ := NewBenchmark(5, 3)
	b, _ := NewBenchmark(5, 3)
	cfg := make(space.Config, 23)
	for i := range cfg {
		cfg[i] = 6
	}
	pa, _ := a.NoisePower(cfg)
	pb, _ := b.NoisePower(cfg)
	if pa != pb {
		t.Error("same seed, different noise powers")
	}
}

func TestNewBenchmarkValidation(t *testing.T) {
	if _, err := NewBenchmark(1, 0); err == nil {
		t.Error("zero blocks accepted")
	}
}

package hevc

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/space"
)

func chromaConstantWindow(v float64) [][]float64 {
	src := make([][]float64, chromaWindow)
	for y := range src {
		src[y] = make([]float64, chromaWindow)
		for x := range src[y] {
			src[y][x] = v
		}
	}
	return src
}

func TestChromaFiltersUnitDCGain(t *testing.T) {
	for i, f := range chromaFilters {
		var sum float64
		for _, c := range f {
			sum += c
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("chroma filter %d DC gain = %v", i+1, sum)
		}
	}
}

func TestChromaFiltersSymmetricPairs(t *testing.T) {
	// Filter for fraction k must be the reverse of the filter for 8-k
	// (the half-pel filter 4/8 is its own reverse).
	for k := 1; k <= 7; k++ {
		a := chromaFilters[k-1]
		b := chromaFilters[7-k]
		for i := 0; i < chromaTaps; i++ {
			if math.Abs(a[i]-b[chromaTaps-1-i]) > 1e-12 {
				t.Errorf("filters %d and %d are not mirror images", k, 8-k)
			}
		}
	}
}

func TestChromaVariableCount(t *testing.T) {
	ip := NewChromaInterp()
	if ip.Nv() != 12 {
		t.Errorf("Nv = %d", ip.Nv())
	}
}

func TestChromaConstantField(t *testing.T) {
	ip := NewChromaInterp()
	src := chromaConstantWindow(0.5)
	for fx := 0; fx <= 7; fx++ {
		for fy := 0; fy <= 7; fy++ {
			out, err := ip.Reference(src, ChromaMV{FracX: fx, FracY: fy})
			if err != nil {
				t.Fatal(err)
			}
			for y := 0; y < BlockSize; y++ {
				for x := 0; x < BlockSize; x++ {
					if math.Abs(out[y][x]-0.5) > 1e-12 {
						t.Fatalf("frac (%d,%d): %v", fx, fy, out[y][x])
					}
				}
			}
		}
	}
}

func TestChromaFixedApproachesReference(t *testing.T) {
	ip := NewChromaInterp()
	src := dataset.Block(rng.New(11), chromaWindow, chromaWindow, 0.999)
	mv := ChromaMV{FracX: 3, FracY: 5}
	ref, err := ip.Reference(src, mv)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ip.Bounds().Corner(true)
	out, err := ip.Fixed(cfg, src, mv)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			if math.Abs(out[y][x]-ref[y][x]) > 1e-3 {
				t.Fatalf("(%d,%d): %v vs %v", y, x, out[y][x], ref[y][x])
			}
		}
	}
}

func TestChromaFixedNoiseMonotone(t *testing.T) {
	ip := NewChromaInterp()
	src := dataset.Block(rng.New(12), chromaWindow, chromaWindow, 0.999)
	mv := ChromaMV{FracX: 4, FracY: 4}
	ref, err := ip.Reference(src, mv)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, w := range []int{4, 7, 10, 13} {
		cfg := make(space.Config, ip.Nv())
		for i := range cfg {
			cfg[i] = w
		}
		out, err := ip.Fixed(cfg, src, mv)
		if err != nil {
			t.Fatal(err)
		}
		var p float64
		for y := 0; y < BlockSize; y++ {
			for x := 0; x < BlockSize; x++ {
				d := out[y][x] - ref[y][x]
				p += d * d
			}
		}
		if p > prev*1.05 {
			t.Errorf("chroma noise grew at w=%d", w)
		}
		prev = p
	}
}

func TestChromaValidation(t *testing.T) {
	ip := NewChromaInterp()
	if _, err := ip.Reference(make([][]float64, 2), ChromaMV{FracX: 1}); err == nil {
		t.Error("short window accepted")
	}
	if _, err := chromaFilterFor(0); err == nil {
		t.Error("fraction 0 accepted")
	}
	if _, err := chromaFilterFor(8); err == nil {
		t.Error("fraction 8 accepted")
	}
	if _, err := ip.Fixed(space.Config{1}, chromaConstantWindow(0), ChromaMV{FracX: 1, FracY: 1}); err == nil {
		t.Error("short config accepted")
	}
}

package nn

import (
	"testing"

	"repro/internal/space"
)

func TestSensitivityQuietFloor(t *testing.T) {
	b, err := NewSensitivityBenchmark(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Evaluate(make(space.Config, NumLayers))
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.99 {
		t.Errorf("quietest configuration agrees only %v of the time", p)
	}
}

func TestSensitivityLoudCorner(t *testing.T) {
	b, err := NewSensitivityBenchmark(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	loud := b.Bounds().Corner(true)
	p, err := b.Evaluate(loud)
	if err != nil {
		t.Fatal(err)
	}
	if p > 0.8 {
		t.Errorf("loudest configuration still agrees %v of the time; injection too weak", p)
	}
}

func TestSensitivityDeterministic(t *testing.T) {
	b, err := NewSensitivityBenchmark(3, 25)
	if err != nil {
		t.Fatal(err)
	}
	cfg := make(space.Config, NumLayers)
	for i := range cfg {
		cfg[i] = 12
	}
	p1, err := b.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := b.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Errorf("same configuration evaluated differently: %v vs %v", p1, p2)
	}
}

func TestSensitivityMonotoneOnAverage(t *testing.T) {
	// Raising every index must not improve agreement (up to sampling
	// noise; use a decisive gap).
	b, err := NewSensitivityBenchmark(2, 40)
	if err != nil {
		t.Fatal(err)
	}
	quiet := make(space.Config, NumLayers)
	mid := make(space.Config, NumLayers)
	for i := range mid {
		mid[i] = 20
	}
	pQuiet, err := b.Evaluate(quiet)
	if err != nil {
		t.Fatal(err)
	}
	pMid, err := b.Evaluate(mid)
	if err != nil {
		t.Fatal(err)
	}
	if pMid > pQuiet {
		t.Errorf("agreement improved with more noise: %v -> %v", pQuiet, pMid)
	}
}

func TestSensitivityValidation(t *testing.T) {
	b, err := NewSensitivityBenchmark(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Evaluate(space.Config{1, 2}); err == nil {
		t.Error("short config accepted")
	}
	if _, err := b.Evaluate(make(space.Config, NumLayers).With(0, -1)); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := NewSensitivityBenchmark(1, 0); err == nil {
		t.Error("zero images accepted")
	}
}

func TestSensitivityInterfaceContract(t *testing.T) {
	b, err := NewSensitivityBenchmark(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if b.Nv() != 10 {
		t.Errorf("Nv = %d", b.Nv())
	}
	bounds := b.Bounds()
	if bounds.Dim() != 10 || bounds.Lo[0] != 0 || bounds.Hi[0] != b.IndexMax {
		t.Errorf("bounds: %+v", bounds)
	}
	if len(LayerNames) != NumLayers {
		t.Error("layer name count mismatch")
	}
}

func TestPowerScale(t *testing.T) {
	b, err := NewSensitivityBenchmark(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if b.Power(0) >= b.Power(2) {
		t.Error("power not increasing with index")
	}
	ratio := b.Power(2) / b.Power(0)
	if ratio < 1.9 || ratio > 2.1 { // 2 steps of 0.5 log2 = one octave
		t.Errorf("power ratio over 2 steps = %v, want ~2", ratio)
	}
}

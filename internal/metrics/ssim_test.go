package metrics

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func image(h, w int, fn func(y, x int) float64) [][]float64 {
	out := make([][]float64, h)
	for y := range out {
		out[y] = make([]float64, w)
		for x := range out[y] {
			out[y][x] = fn(y, x)
		}
	}
	return out
}

func TestSSIMIdenticalIsOne(t *testing.T) {
	r := rng.New(1)
	img := image(8, 8, func(y, x int) float64 { return r.Float64() })
	s, err := SSIM(img, img, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1) > 1e-12 {
		t.Errorf("SSIM(x, x) = %v", s)
	}
}

func TestSSIMRange(t *testing.T) {
	r := rng.New(2)
	a := image(8, 8, func(y, x int) float64 { return r.Float64() })
	b := image(8, 8, func(y, x int) float64 { return r.Float64() })
	s, err := SSIM(a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s > 1 || s < -1 {
		t.Errorf("SSIM out of [-1, 1]: %v", s)
	}
}

func TestSSIMDegradesWithNoise(t *testing.T) {
	r := rng.New(3)
	ref := image(8, 8, func(y, x int) float64 {
		return 0.5 + 0.3*math.Sin(float64(x))*math.Cos(float64(y))
	})
	prev := 1.0
	for _, sigma := range []float64{0.01, 0.05, 0.2} {
		noisy := image(8, 8, func(y, x int) float64 { return ref[y][x] + r.NormScaled(0, sigma) })
		s, err := SSIM(noisy, ref, 1)
		if err != nil {
			t.Fatal(err)
		}
		if s >= prev {
			t.Errorf("SSIM did not degrade at sigma=%v: %v >= %v", sigma, s, prev)
		}
		prev = s
	}
}

func TestSSIMLuminanceShiftPenalised(t *testing.T) {
	ref := image(8, 8, func(y, x int) float64 { return 0.5 })
	shifted := image(8, 8, func(y, x int) float64 { return 0.8 })
	s, err := SSIM(shifted, ref, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s > 0.9 {
		t.Errorf("large luminance shift scored %v", s)
	}
}

func TestSSIMValidation(t *testing.T) {
	img := image(4, 4, func(y, x int) float64 { return 0 })
	if _, err := SSIM(nil, nil, 1); err == nil {
		t.Error("empty images accepted")
	}
	if _, err := SSIM(img, image(3, 4, func(y, x int) float64 { return 0 }), 1); err == nil {
		t.Error("height mismatch accepted")
	}
	ragged := image(4, 4, func(y, x int) float64 { return 0 })
	ragged[2] = ragged[2][:2]
	if _, err := SSIM(img, ragged, 1); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := SSIM(img, img, 0); err == nil {
		t.Error("zero dynamic range accepted")
	}
}

package signal

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/space"
)

// fixedFFT runs the word-length-configured fixed-point FFT on one frame
// into fresh output slices.
func fixedFFT(f *FFT, cfg space.Config, re, im []float64) (outRe, outIm []float64, err error) {
	var p fftPlan
	if err := f.plan(&p, cfg); err != nil {
		return nil, nil, err
	}
	if len(re) != FFTSize || len(im) != FFTSize {
		return nil, nil, fmt.Errorf("FFT input length %d/%d, want %d", len(re), len(im), FFTSize)
	}
	outRe = make([]float64, FFTSize)
	outIm = make([]float64, FFTSize)
	p.run((*[FFTSize]float64)(outRe), (*[FFTSize]float64)(outIm), re, im)
	return outRe, outIm, nil
}

// naiveDFT computes the scaled DFT (divided by N) directly.
func naiveDFT(re, im []float64) (outRe, outIm []float64) {
	n := len(re)
	outRe = make([]float64, n)
	outIm = make([]float64, n)
	for k := 0; k < n; k++ {
		var sr, si float64
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			c, s := math.Cos(ang), math.Sin(ang)
			sr += re[t]*c - im[t]*s
			si += re[t]*s + im[t]*c
		}
		outRe[k] = sr / float64(n)
		outIm[k] = si / float64(n)
	}
	return outRe, outIm
}

func TestFFTReferenceMatchesNaiveDFT(t *testing.T) {
	f := NewFFT()
	r := rng.New(5)
	re := make([]float64, FFTSize)
	im := make([]float64, FFTSize)
	for i := range re {
		re[i] = r.NormScaled(0, 0.3)
		im[i] = r.NormScaled(0, 0.3)
	}
	gr, gi, err := f.Reference(re, im)
	if err != nil {
		t.Fatal(err)
	}
	wr, wi := naiveDFT(re, im)
	for k := 0; k < FFTSize; k++ {
		if math.Abs(gr[k]-wr[k]) > 1e-10 || math.Abs(gi[k]-wi[k]) > 1e-10 {
			t.Fatalf("bin %d: got (%v, %v), want (%v, %v)", k, gr[k], gi[k], wr[k], wi[k])
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	// The DFT of a unit impulse is flat: every bin = 1/N.
	f := NewFFT()
	re := make([]float64, FFTSize)
	im := make([]float64, FFTSize)
	re[0] = 1
	gr, gi, err := f.Reference(re, im)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < FFTSize; k++ {
		if math.Abs(gr[k]-1.0/FFTSize) > 1e-12 || math.Abs(gi[k]) > 1e-12 {
			t.Fatalf("impulse bin %d = (%v, %v)", k, gr[k], gi[k])
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A complex exponential at bin 5 concentrates all energy there.
	f := NewFFT()
	re := make([]float64, FFTSize)
	im := make([]float64, FFTSize)
	for n := 0; n < FFTSize; n++ {
		ang := 2 * math.Pi * 5 * float64(n) / FFTSize
		re[n] = math.Cos(ang)
		im[n] = math.Sin(ang)
	}
	gr, gi, err := f.Reference(re, im)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < FFTSize; k++ {
		mag := math.Hypot(gr[k], gi[k])
		if k == 5 {
			if math.Abs(mag-1) > 1e-9 {
				t.Errorf("bin 5 magnitude = %v, want 1", mag)
			}
		} else if mag > 1e-9 {
			t.Errorf("leakage at bin %d: %v", k, mag)
		}
	}
}

func TestFFTLinearity(t *testing.T) {
	f := NewFFT()
	r := rng.New(6)
	a := make([]float64, FFTSize)
	b := make([]float64, FFTSize)
	zero := make([]float64, FFTSize)
	for i := range a {
		a[i] = r.NormScaled(0, 0.3)
		b[i] = r.NormScaled(0, 0.3)
	}
	sum := make([]float64, FFTSize)
	for i := range sum {
		sum[i] = a[i] + b[i]
	}
	ar, ai, _ := f.Reference(a, zero)
	br, bi, _ := f.Reference(b, zero)
	sr, si, _ := f.Reference(sum, zero)
	for k := 0; k < FFTSize; k++ {
		if math.Abs(sr[k]-(ar[k]+br[k])) > 1e-10 || math.Abs(si[k]-(ai[k]+bi[k])) > 1e-10 {
			t.Fatalf("linearity violated at bin %d", k)
		}
	}
}

func TestFFTFixedApproachesReference(t *testing.T) {
	f := NewFFT()
	re, im := dataset.Complex(rng.New(7), FFTSize, 0.9)
	rr, ri, err := f.Reference(re, im)
	if err != nil {
		t.Fatal(err)
	}
	cfg := make(space.Config, f.Nv())
	for i := range cfg {
		cfg[i] = 16
	}
	gr, gi, err := fixedFFT(f, cfg, re, im)
	if err != nil {
		t.Fatal(err)
	}
	var maxErr float64
	for k := 0; k < FFTSize; k++ {
		maxErr = math.Max(maxErr, math.Hypot(gr[k]-rr[k], gi[k]-ri[k]))
	}
	if maxErr > 1e-3 {
		t.Errorf("max error at 16 bits = %v", maxErr)
	}
}

func TestFFTFixedNoiseMonotone(t *testing.T) {
	b, err := NewFFTBenchmark(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, w := range []int{6, 9, 12, 15} {
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

func TestFFTInputValidation(t *testing.T) {
	f := NewFFT()
	if _, _, err := f.Reference(make([]float64, 32), make([]float64, 64)); err == nil {
		t.Error("short input accepted")
	}
	cfg := make(space.Config, f.Nv())
	for i := range cfg {
		cfg[i] = 8
	}
	if _, _, err := fixedFFT(f, cfg, make([]float64, 32), make([]float64, 32)); err == nil {
		t.Error("short fixed input accepted")
	}
	if _, _, err := fixedFFT(f, space.Config{1, 2}, make([]float64, 64), make([]float64, 64)); err == nil {
		t.Error("short config accepted")
	}
}

func TestFFTBenchmarkInterface(t *testing.T) {
	b, err := NewFFTBenchmark(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "fft" || b.Nv() != 10 {
		t.Errorf("Name/Nv: %s %d", b.Name(), b.Nv())
	}
}

func TestNewFFTBenchmarkValidation(t *testing.T) {
	if _, err := NewFFTBenchmark(1, 0); err == nil {
		t.Error("zero frames accepted")
	}
}

func TestBitReverseInvolution(t *testing.T) {
	r := rng.New(8)
	re := make([]float64, FFTSize)
	im := make([]float64, FFTSize)
	for i := range re {
		re[i] = r.Float64()
		im[i] = r.Float64()
	}
	re2 := append([]float64(nil), re...)
	im2 := append([]float64(nil), im...)
	bitReverse(re2, im2)
	bitReverse(re2, im2)
	for i := range re {
		if re2[i] != re[i] || im2[i] != im[i] {
			t.Fatal("bit reversal is not an involution")
		}
	}
}

package signal

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/space"
)

// Benchmark abstracts the three signal kernels for the simulator harness:
// a kernel evaluates one word-length configuration on the pre-generated
// input data set and returns the output noise power.
type Benchmark interface {
	// Name identifies the benchmark ("fir", "iir", "fft").
	Name() string
	// Nv returns the number of optimisation variables.
	Nv() int
	// Bounds returns the word-length search box.
	Bounds() space.Bounds
	// NoisePower measures P for one configuration on the fixed input
	// data set.
	NoisePower(cfg space.Config) (float64, error)
}

// Simulator adapts a Benchmark to the evaluator.Simulator contract with
// the paper's accuracy convention λ = -P.
type Simulator struct {
	B Benchmark
}

// Evaluate returns λ(cfg) = -P(cfg).
func (s *Simulator) Evaluate(cfg space.Config) (float64, error) {
	p, err := s.B.NoisePower(cfg)
	if err != nil {
		return 0, err
	}
	return -p, nil
}

// Nv returns the benchmark dimensionality.
func (s *Simulator) Nv() int { return s.B.Nv() }

// firBench evaluates the FIR kernel on a pre-generated signal.
type firBench struct {
	f   *FIR
	x   []float64
	ref []float64
}

// NewFIRBenchmark creates the FIR benchmark over nSamples of synthetic
// input drawn from the given seed. The reference output is computed once.
func NewFIRBenchmark(seed uint64, nSamples int) (Benchmark, error) {
	if nSamples <= 0 {
		return nil, errors.New("signal: non-positive sample count")
	}
	f, err := NewFIR()
	if err != nil {
		return nil, err
	}
	x := dataset.Signal(rng.NewNamed(seed, "fir-input"), nSamples, 0.9)
	return &firBench{f: f, x: x, ref: f.Reference(x)}, nil
}

func (b *firBench) Name() string         { return "fir" }
func (b *firBench) Nv() int              { return b.f.Nv() }
func (b *firBench) Bounds() space.Bounds { return b.f.Bounds() }

func (b *firBench) NoisePower(cfg space.Config) (float64, error) {
	y, err := b.f.Fixed(cfg, b.x)
	if err != nil {
		return 0, err
	}
	return metrics.NoisePower(y, b.ref)
}

// iirBench evaluates the IIR kernel on a pre-generated signal.
type iirBench struct {
	f   *IIR
	x   []float64
	ref []float64
}

// NewIIRBenchmark creates the IIR benchmark over nSamples of synthetic
// input drawn from the given seed.
func NewIIRBenchmark(seed uint64, nSamples int) (Benchmark, error) {
	if nSamples <= 0 {
		return nil, errors.New("signal: non-positive sample count")
	}
	f, err := NewIIR()
	if err != nil {
		return nil, err
	}
	x := dataset.Signal(rng.NewNamed(seed, "iir-input"), nSamples, 0.9)
	return &iirBench{f: f, x: x, ref: f.Reference(x)}, nil
}

func (b *iirBench) Name() string         { return "iir" }
func (b *iirBench) Nv() int              { return b.f.Nv() }
func (b *iirBench) Bounds() space.Bounds { return b.f.Bounds() }

func (b *iirBench) NoisePower(cfg space.Config) (float64, error) {
	y, err := b.f.Fixed(cfg, b.x)
	if err != nil {
		return 0, err
	}
	return metrics.NoisePower(y, b.ref)
}

// fftBench evaluates the FFT kernel on a set of pre-generated complex
// frames.
type fftBench struct {
	f              *FFT
	framesRe       [][]float64
	framesIm       [][]float64
	refRe, refIm   [][]float64
	samplesPerEval int
}

// NewFFTBenchmark creates the FFT benchmark over nFrames transform frames
// of synthetic complex input drawn from the given seed.
func NewFFTBenchmark(seed uint64, nFrames int) (Benchmark, error) {
	if nFrames <= 0 {
		return nil, errors.New("signal: non-positive frame count")
	}
	f := NewFFT()
	r := rng.NewNamed(seed, "fft-input")
	b := &fftBench{f: f, samplesPerEval: nFrames * FFTSize}
	for i := 0; i < nFrames; i++ {
		re, im := dataset.Complex(r, FFTSize, 0.9)
		rr, ri, err := f.Reference(re, im)
		if err != nil {
			return nil, fmt.Errorf("signal: FFT reference frame %d: %w", i, err)
		}
		b.framesRe = append(b.framesRe, re)
		b.framesIm = append(b.framesIm, im)
		b.refRe = append(b.refRe, rr)
		b.refIm = append(b.refIm, ri)
	}
	return b, nil
}

func (b *fftBench) Name() string         { return "fft" }
func (b *fftBench) Nv() int              { return b.f.Nv() }
func (b *fftBench) Bounds() space.Bounds { return b.f.Bounds() }

func (b *fftBench) NoisePower(cfg space.Config) (float64, error) {
	var p fftPlan
	if err := b.f.plan(&p, cfg); err != nil {
		return 0, err
	}
	var yr, yi [FFTSize]float64
	var sum float64
	n := 0
	for i := range b.framesRe {
		p.run(&yr, &yi, b.framesRe[i], b.framesIm[i])
		for k := 0; k < FFTSize; k++ {
			dr := yr[k] - b.refRe[i][k]
			di := yi[k] - b.refIm[i][k]
			sum += dr*dr + di*di
			n++
		}
	}
	return sum / float64(n), nil
}

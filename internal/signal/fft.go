package signal

import (
	"fmt"
	"math"

	"repro/internal/fixed"
	"repro/internal/space"
)

// FFTSize is the transform length of the paper's third benchmark.
const FFTSize = 64

const fftStages = 6 // log2(64)

// FFT is the 64-point radix-2 decimation-in-time FFT benchmark with
// Nv = 10 optimisation variables:
//
//	cfg[0]    input register word-length
//	cfg[1]    twiddle-factor coefficient word-length
//	cfg[2..7] output register of each of the 6 butterfly stages
//	cfg[8]    butterfly multiplier-output word-length (shared)
//	cfg[9]    final output register word-length
//
// The fixed-point datapath uses the standard per-stage 1/2 scaling so the
// signal never outgrows the format (total gain 1/N).
type FFT struct {
	inNode    *fixed.Node
	twNode    *fixed.Node
	stageNode []*fixed.Node
	mulNode   *fixed.Node
	outNode   *fixed.Node
	path      *fixed.Datapath

	twRe, twIm []float64 // exact twiddles, indexed by k in W_N^k
}

// NewFFT builds the benchmark transform.
func NewFFT() *FFT {
	f := &FFT{path: fixed.NewDatapath()}
	f.inNode = f.path.AddNode("input", 0)
	f.twNode = f.path.AddNode("twiddle", 0)
	for s := 0; s < fftStages; s++ {
		f.stageNode = append(f.stageNode, f.path.AddNode(fmt.Sprintf("stage%d_out", s), 1))
	}
	f.mulNode = f.path.AddNode("mult_out", 1)
	f.outNode = f.path.AddNode("output", 1)
	f.twRe = make([]float64, FFTSize/2)
	f.twIm = make([]float64, FFTSize/2)
	for k := 0; k < FFTSize/2; k++ {
		ang := -2 * math.Pi * float64(k) / FFTSize
		f.twRe[k] = math.Cos(ang)
		f.twIm[k] = math.Sin(ang)
	}
	return f
}

// Nv returns the number of optimisation variables (10).
func (f *FFT) Nv() int { return f.path.Nv() }

// Bounds returns the word-length search box used in the experiments.
func (f *FFT) Bounds() space.Bounds { return space.UniformBounds(f.Nv(), 4, 16) }

// bitReverse permutes a complex sequence (re, im modified in place) into
// bit-reversed order.
func bitReverse(re, im []float64) {
	n := len(re)
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
	}
}

// Reference computes the exact scaled FFT (output divided by N, matching
// the fixed datapath's per-stage halving) of the length-64 complex input.
func (f *FFT) Reference(re, im []float64) (outRe, outIm []float64, err error) {
	if len(re) != FFTSize || len(im) != FFTSize {
		return nil, nil, fmt.Errorf("signal: FFT input length %d/%d, want %d", len(re), len(im), FFTSize)
	}
	outRe = append([]float64(nil), re...)
	outIm = append([]float64(nil), im...)
	bitReverse(outRe, outIm)
	for s := 0; s < fftStages; s++ {
		half := 1 << s
		step := FFTSize / (2 * half)
		for base := 0; base < FFTSize; base += 2 * half {
			for k := 0; k < half; k++ {
				tw := k * step
				i0, i1 := base+k, base+k+half
				tr := f.twRe[tw]*outRe[i1] - f.twIm[tw]*outIm[i1]
				ti := f.twRe[tw]*outIm[i1] + f.twIm[tw]*outRe[i1]
				ar, ai := outRe[i0], outIm[i0]
				outRe[i0] = (ar + tr) / 2
				outIm[i0] = (ai + ti) / 2
				outRe[i1] = (ar - tr) / 2
				outIm[i1] = (ai - ti) / 2
			}
		}
	}
	return outRe, outIm, nil
}

// fftNv is the FFT's number of optimisation variables.
const fftNv = fftStages + 4

// fftPlan is the FFT datapath compiled for one configuration: the node
// quantisers, and the twiddles quantised through the twiddle node.
type fftPlan struct {
	q          [fftNv]fixed.Quantizer
	twRe, twIm [FFTSize / 2]float64
}

// plan compiles cfg into p.
func (f *FFT) plan(p *fftPlan, cfg space.Config) error {
	if err := f.path.Compile(p.q[:], cfg); err != nil {
		return err
	}
	twQ := &p.q[1]
	for k := range f.twRe {
		p.twRe[k] = twQ.Quantize(f.twRe[k])
		p.twIm[k] = twQ.Quantize(f.twIm[k])
	}
	return nil
}

// run transforms one length-FFTSize frame through the compiled datapath
// into outRe/outIm.
func (p *fftPlan) run(outRe, outIm *[FFTSize]float64, re, im []float64) {
	inQ, mulQ, outQ := &p.q[0], &p.q[2+fftStages], &p.q[3+fftStages]
	for i := 0; i < FFTSize; i++ {
		outRe[i] = inQ.Quantize(re[i])
		outIm[i] = inQ.Quantize(im[i])
	}
	bitReverse(outRe[:], outIm[:])
	for s := 0; s < fftStages; s++ {
		stage := &p.q[2+s]
		half := 1 << s
		step := FFTSize / (2 * half)
		for base := 0; base < FFTSize; base += 2 * half {
			for k := 0; k < half; k++ {
				tw := k * step
				i0, i1 := base+k, base+k+half
				tr := mulQ.Quantize(p.twRe[tw]*outRe[i1]) - mulQ.Quantize(p.twIm[tw]*outIm[i1])
				ti := mulQ.Quantize(p.twRe[tw]*outIm[i1]) + mulQ.Quantize(p.twIm[tw]*outRe[i1])
				ar, ai := outRe[i0], outIm[i0]
				outRe[i0] = stage.Quantize((ar + tr) / 2)
				outIm[i0] = stage.Quantize((ai + ti) / 2)
				outRe[i1] = stage.Quantize((ar - tr) / 2)
				outIm[i1] = stage.Quantize((ai - ti) / 2)
			}
		}
	}
	for i := 0; i < FFTSize; i++ {
		outRe[i] = outQ.Quantize(outRe[i])
		outIm[i] = outQ.Quantize(outIm[i])
	}
}

// Package hevc implements the paper's fourth benchmark: the 2-D motion
// compensation (fractional-pel interpolation) module of an HEVC codec,
// processing 8×8 blocks with the standard HEVC 8-tap luma interpolation
// filters, exposed as a fixed-point datapath with 23 word-length
// optimisation variables.
//
// The datapath follows the HEVC structure: an 8-tap horizontal filter
// produces an intermediate block, then an 8-tap vertical filter produces
// the prediction. The 23 quantisation nodes are: the input register (1),
// the eight horizontal tap products (8), the horizontal accumulator and
// its normalised output (2), the intermediate line buffer the vertical
// pass reads (1), the eight vertical tap products (8), the vertical
// accumulator and its normalised output (2), and the final output
// register (1).
package hevc

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/fixed"
	"repro/internal/rng"
	"repro/internal/space"
)

// BlockSize is the benchmark's block dimension (8×8 per the paper).
const BlockSize = 8

// taps is the length of the HEVC luma interpolation filters.
const taps = 8

// lumaFilters holds the HEVC luma interpolation filter coefficients for
// fractional positions 1/4, 2/4 and 3/4 (HEVC spec Table 8-11),
// normalised by 64 to unit DC gain.
var lumaFilters = [3][taps]float64{
	{-1. / 64, 4. / 64, -10. / 64, 58. / 64, 17. / 64, -5. / 64, 1. / 64, 0},
	{-1. / 64, 4. / 64, -11. / 64, 40. / 64, 40. / 64, -11. / 64, 4. / 64, -1. / 64},
	{0, 1. / 64, -5. / 64, 17. / 64, 58. / 64, -10. / 64, 4. / 64, -1. / 64},
}

// MotionVector is a fractional-pel displacement: FracX/FracY in {0..3}
// quarter-pel units. Integer parts are irrelevant to the datapath (they
// only shift the source window), so the benchmark draws only fractions.
type MotionVector struct {
	FracX, FracY int
}

// Interp is the word-length-configurable interpolator.
type Interp struct {
	path    *fixed.Datapath
	inNode  *fixed.Node
	hProd   [taps]*fixed.Node
	hAcc    *fixed.Node
	hOut    *fixed.Node
	inter   *fixed.Node
	vProd   [taps]*fixed.Node
	vAcc    *fixed.Node
	vOut    *fixed.Node
	outNode *fixed.Node
}

// NewInterp builds the interpolator datapath.
func NewInterp() *Interp {
	ip := &Interp{path: fixed.NewDatapath()}
	ip.inNode = ip.path.AddNode("input", 0)
	for i := 0; i < taps; i++ {
		ip.hProd[i] = ip.path.AddNode(fmt.Sprintf("h_prod%d", i), 0)
	}
	// Σ|c| = 96/64 = 1.5, so accumulators need one integer bit.
	ip.hAcc = ip.path.AddNode("h_acc", 1)
	ip.hOut = ip.path.AddNode("h_out", 1)
	ip.inter = ip.path.AddNode("inter", 1)
	for i := 0; i < taps; i++ {
		ip.vProd[i] = ip.path.AddNode(fmt.Sprintf("v_prod%d", i), 1)
	}
	ip.vAcc = ip.path.AddNode("v_acc", 2)
	ip.vOut = ip.path.AddNode("v_out", 1)
	ip.outNode = ip.path.AddNode("output", 1)
	return ip
}

// Nv returns the number of optimisation variables (23).
func (ip *Interp) Nv() int { return ip.path.Nv() }

// Bounds returns the word-length search box used in the experiments.
func (ip *Interp) Bounds() space.Bounds { return space.UniformBounds(ip.Nv(), 2, 14) }

// padded returns the (BlockSize+taps-1)² source window needed to
// interpolate one block: the block itself extended by the filter support
// (3 left/top, 4 right/bottom). The benchmark synthesises the window
// directly.
const window = BlockSize + taps - 1

// filterFor returns the filter for a quarter-pel fraction (1..3).
func filterFor(frac int) (*[taps]float64, error) {
	if frac < 1 || frac > 3 {
		return nil, fmt.Errorf("hevc: fraction %d outside 1..3", frac)
	}
	return &lumaFilters[frac-1], nil
}

// Reference interpolates the 8×8 block at the given fractional position
// from the padded source window src (window×window, pixel values in
// [0, 1)) in double precision.
func (ip *Interp) Reference(src [][]float64, mv MotionVector) ([][]float64, error) {
	if err := checkWindow(src); err != nil {
		return nil, err
	}
	if mv.FracX == 0 && mv.FracY == 0 {
		// Integer-pel copy of the central block.
		out := newBlock()
		for y := 0; y < BlockSize; y++ {
			for x := 0; x < BlockSize; x++ {
				out[y][x] = src[y+3][x+3]
			}
		}
		return out, nil
	}
	// Horizontal pass over all rows the vertical filter will touch.
	inter := make([][]float64, window)
	for y := 0; y < window; y++ {
		inter[y] = make([]float64, BlockSize)
		for x := 0; x < BlockSize; x++ {
			if mv.FracX == 0 {
				inter[y][x] = src[y][x+3]
				continue
			}
			fx, err := filterFor(mv.FracX)
			if err != nil {
				return nil, err
			}
			var acc float64
			for t := 0; t < taps; t++ {
				acc += fx[t] * src[y][x+t]
			}
			inter[y][x] = acc
		}
	}
	out := newBlock()
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			if mv.FracY == 0 {
				out[y][x] = inter[y+3][x]
				continue
			}
			fy, err := filterFor(mv.FracY)
			if err != nil {
				return nil, err
			}
			var acc float64
			for t := 0; t < taps; t++ {
				acc += fy[t] * inter[y+t][x]
			}
			out[y][x] = acc
		}
	}
	return out, nil
}

// Fixed interpolates through the word-length-configured datapath. It
// does not mutate shared state, so one Interp may serve concurrent
// evaluations under different configurations.
func (ip *Interp) Fixed(cfg space.Config, src [][]float64, mv MotionVector) ([][]float64, error) {
	var p lumaPlan
	if err := ip.path.Compile(p[:], cfg); err != nil {
		return nil, err
	}
	var out block
	if err := p.interpolate(&out, src, mv); err != nil {
		return nil, err
	}
	return out.rows(), nil
}

// lumaNv is the luma datapath's number of optimisation variables.
const lumaNv = 2*taps + 7

// lumaPlan is the luma datapath compiled for one configuration, one
// quantiser per node in datapath order.
type lumaPlan [lumaNv]fixed.Quantizer

// interpolate runs one block through the compiled datapath into out.
func (p *lumaPlan) interpolate(out *block, src [][]float64, mv MotionVector) error {
	var (
		inQ    = &p[0]
		hProd  = p[1 : 1+taps]
		hAccQ  = &p[1+taps]
		hOutQ  = &p[2+taps]
		interQ = &p[3+taps]
		vProd  = p[4+taps : 4+2*taps]
		vAccQ  = &p[4+2*taps]
		vOutQ  = &p[5+2*taps]
		outQ   = &p[6+2*taps]
	)
	if err := checkWindow(src); err != nil {
		return err
	}
	// Input registers.
	var q [window][window]float64
	for y := range q {
		for x := range q[y] {
			q[y][x] = inQ.Quantize(src[y][x])
		}
	}
	var inter [window][BlockSize]float64
	for y := 0; y < window; y++ {
		for x := 0; x < BlockSize; x++ {
			if mv.FracX == 0 {
				inter[y][x] = hOutQ.Quantize(q[y][x+3])
				continue
			}
			fx, err := filterFor(mv.FracX)
			if err != nil {
				return err
			}
			var acc float64
			for t := 0; t < taps; t++ {
				if fx[t] == 0 {
					continue
				}
				acc = hAccQ.Quantize(acc + hProd[t].Quantize(fx[t]*q[y][x+t]))
			}
			inter[y][x] = interQ.Quantize(hOutQ.Quantize(acc))
		}
	}
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			var v float64
			if mv.FracY == 0 {
				v = inter[y+3][x]
			} else {
				fy, err := filterFor(mv.FracY)
				if err != nil {
					return err
				}
				var acc float64
				for t := 0; t < taps; t++ {
					if fy[t] == 0 {
						continue
					}
					acc = vAccQ.Quantize(acc + vProd[t].Quantize(fy[t]*inter[y+t][x]))
				}
				v = vOutQ.Quantize(acc)
			}
			out[y][x] = outQ.Quantize(v)
		}
	}
	return nil
}

// block is one interpolated BlockSize×BlockSize prediction.
type block [BlockSize][BlockSize]float64

// rows copies the block into a freshly allocated row slice.
func (b *block) rows() [][]float64 {
	out := newBlock()
	for y := range out {
		copy(out[y], b[y][:])
	}
	return out
}

// addSquaredError adds the squared errors of b against ref to s in
// row-major order and returns the sum.
func (b *block) addSquaredError(s float64, ref [][]float64) float64 {
	for y := range b {
		for x, v := range b[y] {
			d := v - ref[y][x]
			s += d * d
		}
	}
	return s
}

func newBlock() [][]float64 {
	b := make([][]float64, BlockSize)
	for i := range b {
		b[i] = make([]float64, BlockSize)
	}
	return b
}

func checkWindow(src [][]float64) error {
	if len(src) != window {
		return fmt.Errorf("hevc: source window has %d rows, want %d", len(src), window)
	}
	for i, row := range src {
		if len(row) != window {
			return fmt.Errorf("hevc: source window row %d has %d columns, want %d", i, len(row), window)
		}
	}
	return nil
}

// Benchmark is the motion-compensation noise-power benchmark: a set of
// source windows with non-integer motion vectors, evaluated against the
// double-precision reference.
type Benchmark struct {
	ip   *Interp
	srcs [][][]float64
	mvs  []MotionVector
	refs [][][]float64
}

// NewBenchmark synthesises nBlocks source windows and fractional motion
// vectors from the seed and precomputes the reference predictions.
func NewBenchmark(seed uint64, nBlocks int) (*Benchmark, error) {
	if nBlocks <= 0 {
		return nil, fmt.Errorf("hevc: non-positive block count %d", nBlocks)
	}
	b := &Benchmark{ip: NewInterp()}
	r := rng.NewNamed(seed, "hevc-blocks")
	for i := 0; i < nBlocks; i++ {
		src := dataset.Block(r, window, window, 0.999)
		// Non-integer motion vectors only: that is the case the module
		// exists for ("interpolate the block in the case of non-integer
		// motion vector").
		mv := MotionVector{FracX: r.IntRange(1, 3), FracY: r.IntRange(1, 3)}
		ref, err := b.ip.Reference(src, mv)
		if err != nil {
			return nil, err
		}
		b.srcs = append(b.srcs, src)
		b.mvs = append(b.mvs, mv)
		b.refs = append(b.refs, ref)
	}
	return b, nil
}

// Name identifies the benchmark.
func (b *Benchmark) Name() string { return "hevc" }

// Nv returns the number of optimisation variables (23).
func (b *Benchmark) Nv() int { return b.ip.Nv() }

// Bounds returns the word-length search box.
func (b *Benchmark) Bounds() space.Bounds { return b.ip.Bounds() }

// NoisePower measures P for one configuration across all blocks.
func (b *Benchmark) NoisePower(cfg space.Config) (float64, error) {
	var p lumaPlan
	if err := b.ip.path.Compile(p[:], cfg); err != nil {
		return 0, err
	}
	var out block
	var s float64
	for i := range b.srcs {
		if err := p.interpolate(&out, b.srcs[i], b.mvs[i]); err != nil {
			return 0, err
		}
		s = out.addSquaredError(s, b.refs[i])
	}
	return s / float64(len(b.srcs)*BlockSize*BlockSize), nil
}

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
//
// The horizontal pass reads only the first twelve of these (the input
// register through the line buffer), and a min+1 round's eleven
// vertical-node candidates share them with their incumbent. A Benchmark
// therefore keeps the horizontal pass it computed last: one immutable
// entry, published through an atomic pointer, holding the twelve
// word-lengths and every block's intermediate plane. A simulation whose
// first twelve word-lengths match the entry runs only the vertical pass;
// any other recomputes the planes into a fresh entry and publishes it.
// The values are bit-identical to a full interpolation, since the same
// float operations run in the same order. On the seed-1 perfbench
// campaigns about 45% (sequential) and 50% (batched) of hevc
// simulations reuse the entry.
package hevc

import (
	"fmt"
	"sync/atomic"

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
	var pl plane
	if err := p.horizontal(&pl, src, mv.FracX); err != nil {
		return nil, err
	}
	var out block
	if err := p.vertical(&out, &pl, mv.FracY); err != nil {
		return nil, err
	}
	return out.rows(), nil
}

// lumaNv is the luma datapath's number of optimisation variables.
const lumaNv = 2*taps + 7

// hNodes is the number of leading datapath nodes the horizontal pass
// reads: the input register, the eight h-products, h_acc, h_out and
// inter. The vertical pass reads the rest.
const hNodes = taps + 4

// lumaPlan is the luma datapath compiled for one configuration, one
// quantiser per node in datapath order.
type lumaPlan [lumaNv]fixed.Quantizer

// plane is one block's horizontal-pass output: the window×BlockSize
// intermediate line buffer the vertical pass reads.
type plane [window][BlockSize]float64

// horizontal runs one source window through the input register and the
// horizontal filter (nodes 0..hNodes-1) into pl.
func (p *lumaPlan) horizontal(pl *plane, src [][]float64, fracX int) error {
	var (
		inQ    = &p[0]
		hProd  = p[1 : 1+taps]
		hAccQ  = &p[1+taps]
		hOutQ  = &p[2+taps]
		interQ = &p[3+taps]
	)
	if err := checkWindow(src); err != nil {
		return err
	}
	var fx *[taps]float64
	if fracX != 0 {
		var err error
		if fx, err = filterFor(fracX); err != nil {
			return err
		}
	}
	// Input registers.
	var q [window][window]float64
	for y := range q {
		for x := range q[y] {
			q[y][x] = inQ.Quantize(src[y][x])
		}
	}
	for y := 0; y < window; y++ {
		if fx == nil {
			for x := range pl[y] {
				pl[y][x] = hOutQ.Quantize(q[y][x+3])
			}
			continue
		}
		// The tap loop runs outside the pixel loop, so the row's
		// BlockSize accumulators are independent dependency chains; each
		// pixel still takes its taps in order.
		var acc [BlockSize]float64
		for t, c := range fx {
			if c == 0 {
				continue
			}
			prodQ, row := &hProd[t], q[y][t:t+BlockSize]
			for x, v := range row {
				acc[x] = hAccQ.Quantize(acc[x] + prodQ.Quantize(c*v))
			}
		}
		for x, a := range acc {
			pl[y][x] = interQ.Quantize(hOutQ.Quantize(a))
		}
	}
	return nil
}

// vertical runs one block's intermediate plane through the vertical
// filter and the output register (nodes hNodes..lumaNv-1) into out.
func (p *lumaPlan) vertical(out *block, pl *plane, fracY int) error {
	var (
		vProd = p[4+taps : 4+2*taps]
		vAccQ = &p[4+2*taps]
		vOutQ = &p[5+2*taps]
		outQ  = &p[6+2*taps]
	)
	var fy *[taps]float64
	if fracY != 0 {
		var err error
		if fy, err = filterFor(fracY); err != nil {
			return err
		}
	}
	for y := 0; y < BlockSize; y++ {
		if fy == nil {
			for x, v := range pl[y+3] {
				out[y][x] = outQ.Quantize(v)
			}
			continue
		}
		// As in horizontal, the row's accumulators advance together.
		var acc [BlockSize]float64
		for t, c := range fy {
			if c == 0 {
				continue
			}
			prodQ, row := &vProd[t], &pl[y+t]
			for x, v := range row {
				acc[x] = vAccQ.Quantize(acc[x] + prodQ.Quantize(c*v))
			}
		}
		for x, a := range acc {
			out[y][x] = outQ.Quantize(vOutQ.Quantize(a))
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

	// last is the most recently computed horizontal pass. It is
	// immutable once published, so concurrent simulations read it
	// without a lock.
	last atomic.Pointer[hEntry]
}

// hEntry is every block's horizontal-pass plane under one setting of
// the first hNodes word-lengths.
type hEntry struct {
	key [hNodes]int
	pl  []plane
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
	pls, err := b.planes(&p, cfg)
	if err != nil {
		return 0, err
	}
	var out block
	var s float64
	for i := range pls {
		if err := p.vertical(&out, &pls[i], b.mvs[i].FracY); err != nil {
			return 0, err
		}
		s = out.addSquaredError(s, b.refs[i])
	}
	return s / float64(len(b.srcs)*BlockSize*BlockSize), nil
}

// planes returns every block's horizontal-pass plane under p, which was
// compiled from cfg. The planes depend only on cfg's first hNodes
// word-lengths, which a min+1 round's vertical-node candidates share
// with their incumbent: if they match the published entry, its planes
// are returned as they are; otherwise they are recomputed into a fresh
// entry, which replaces it. Either way the vertical pass then reads
// exactly the values a full interpolation would have computed.
func (b *Benchmark) planes(p *lumaPlan, cfg space.Config) ([]plane, error) {
	var key [hNodes]int
	copy(key[:], cfg)
	if e := b.last.Load(); e != nil && e.key == key {
		return e.pl, nil
	}
	e := &hEntry{key: key, pl: make([]plane, len(b.srcs))}
	for i := range e.pl {
		if err := p.horizontal(&e.pl[i], b.srcs[i], b.mvs[i].FracX); err != nil {
			return nil, err
		}
	}
	b.last.Store(e)
	return e.pl, nil
}

package hevc

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/fixed"
	"repro/internal/rng"
	"repro/internal/space"
)

// chromaTaps is the length of the HEVC chroma interpolation filters.
const chromaTaps = 4

// chromaFilters holds the HEVC chroma interpolation filter coefficients
// for eighth-pel fractional positions 1..7 (HEVC spec Table 8-13),
// normalised by 64 to unit DC gain.
var chromaFilters = [7][chromaTaps]float64{
	{-2. / 64, 58. / 64, 10. / 64, -2. / 64},
	{-4. / 64, 54. / 64, 16. / 64, -2. / 64},
	{-6. / 64, 46. / 64, 28. / 64, -4. / 64},
	{-4. / 64, 36. / 64, 36. / 64, -4. / 64},
	{-4. / 64, 28. / 64, 46. / 64, -6. / 64},
	{-2. / 64, 16. / 64, 54. / 64, -4. / 64},
	{-2. / 64, 10. / 64, 58. / 64, -2. / 64},
}

// ChromaMV is an eighth-pel chroma displacement: FracX/FracY in {0..7}.
type ChromaMV struct {
	FracX, FracY int
}

// chromaWindow is the padded source size for one chroma block: the block
// plus the 4-tap support (1 left/top, 2 right/bottom).
const chromaWindow = BlockSize + chromaTaps - 1

// ChromaInterp is the word-length-configurable chroma interpolator — the
// companion datapath to the luma Interp, with Nv = 12 knobs: the input
// register, four horizontal tap products, the horizontal output, four
// vertical tap products, the vertical output and the final output. The
// structure mirrors the luma path with the shorter filters.
type ChromaInterp struct {
	path    *fixed.Datapath
	inNode  *fixed.Node
	hProd   [chromaTaps]*fixed.Node
	hOut    *fixed.Node
	vProd   [chromaTaps]*fixed.Node
	vOut    *fixed.Node
	outNode *fixed.Node
}

// NewChromaInterp builds the chroma datapath.
func NewChromaInterp() *ChromaInterp {
	ip := &ChromaInterp{path: fixed.NewDatapath()}
	ip.inNode = ip.path.AddNode("input", 0)
	for i := 0; i < chromaTaps; i++ {
		ip.hProd[i] = ip.path.AddNode(fmt.Sprintf("h_prod%d", i), 0)
	}
	// Σ|c| = 72/64 = 1.125: one integer bit suffices.
	ip.hOut = ip.path.AddNode("h_out", 1)
	for i := 0; i < chromaTaps; i++ {
		ip.vProd[i] = ip.path.AddNode(fmt.Sprintf("v_prod%d", i), 1)
	}
	ip.vOut = ip.path.AddNode("v_out", 1)
	ip.outNode = ip.path.AddNode("output", 1)
	return ip
}

// Nv returns the number of optimisation variables (12).
func (ip *ChromaInterp) Nv() int { return ip.path.Nv() }

// Bounds returns the word-length search box.
func (ip *ChromaInterp) Bounds() space.Bounds { return space.UniformBounds(ip.Nv(), 2, 14) }

func chromaFilterFor(frac int) (*[chromaTaps]float64, error) {
	if frac < 1 || frac > 7 {
		return nil, fmt.Errorf("hevc: chroma fraction %d outside 1..7", frac)
	}
	return &chromaFilters[frac-1], nil
}

func checkChromaWindow(src [][]float64) error {
	if len(src) != chromaWindow {
		return fmt.Errorf("hevc: chroma window has %d rows, want %d", len(src), chromaWindow)
	}
	for i, row := range src {
		if len(row) != chromaWindow {
			return fmt.Errorf("hevc: chroma window row %d has %d columns, want %d", i, len(row), chromaWindow)
		}
	}
	return nil
}

// Reference interpolates an 8×8 chroma block at the given eighth-pel
// position in double precision.
func (ip *ChromaInterp) Reference(src [][]float64, mv ChromaMV) ([][]float64, error) {
	if err := checkChromaWindow(src); err != nil {
		return nil, err
	}
	inter := make([][]float64, chromaWindow)
	for y := 0; y < chromaWindow; y++ {
		inter[y] = make([]float64, BlockSize)
		for x := 0; x < BlockSize; x++ {
			if mv.FracX == 0 {
				inter[y][x] = src[y][x+1]
				continue
			}
			fx, err := chromaFilterFor(mv.FracX)
			if err != nil {
				return nil, err
			}
			var acc float64
			for t := 0; t < chromaTaps; t++ {
				acc += fx[t] * src[y][x+t]
			}
			inter[y][x] = acc
		}
	}
	out := newBlock()
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			if mv.FracY == 0 {
				out[y][x] = inter[y+1][x]
				continue
			}
			fy, err := chromaFilterFor(mv.FracY)
			if err != nil {
				return nil, err
			}
			var acc float64
			for t := 0; t < chromaTaps; t++ {
				acc += fy[t] * inter[y+t][x]
			}
			out[y][x] = acc
		}
	}
	return out, nil
}

// ChromaBenchmark is the chroma companion of Benchmark: the 4-tap
// eighth-pel datapath evaluated as a noise-power benchmark with Nv = 12.
type ChromaBenchmark struct {
	ip   *ChromaInterp
	srcs [][][]float64
	mvs  []ChromaMV
	refs [][][]float64
}

// NewChromaBenchmark synthesises nBlocks chroma source windows with
// non-integer eighth-pel motion vectors and precomputes the references.
func NewChromaBenchmark(seed uint64, nBlocks int) (*ChromaBenchmark, error) {
	if nBlocks <= 0 {
		return nil, fmt.Errorf("hevc: non-positive block count %d", nBlocks)
	}
	b := &ChromaBenchmark{ip: NewChromaInterp()}
	r := rng.NewNamed(seed, "hevc-chroma-blocks")
	for i := 0; i < nBlocks; i++ {
		src := dataset.Block(r, chromaWindow, chromaWindow, 0.999)
		mv := ChromaMV{FracX: r.IntRange(1, 7), FracY: r.IntRange(1, 7)}
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
func (b *ChromaBenchmark) Name() string { return "hevc-chroma" }

// Nv returns the number of optimisation variables (12).
func (b *ChromaBenchmark) Nv() int { return b.ip.Nv() }

// Bounds returns the word-length search box.
func (b *ChromaBenchmark) Bounds() space.Bounds { return b.ip.Bounds() }

// NoisePower measures P for one configuration across all chroma blocks.
func (b *ChromaBenchmark) NoisePower(cfg space.Config) (float64, error) {
	var p chromaPlan
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

// Fixed interpolates through the word-length-configured chroma datapath.
// It does not mutate shared state, so one ChromaInterp may serve
// concurrent evaluations under different configurations.
func (ip *ChromaInterp) Fixed(cfg space.Config, src [][]float64, mv ChromaMV) ([][]float64, error) {
	var p chromaPlan
	if err := ip.path.Compile(p[:], cfg); err != nil {
		return nil, err
	}
	var out block
	if err := p.interpolate(&out, src, mv); err != nil {
		return nil, err
	}
	return out.rows(), nil
}

// chromaNv is the chroma datapath's number of optimisation variables.
const chromaNv = 2*chromaTaps + 4

// chromaPlan is the chroma datapath compiled for one configuration, one
// quantiser per node in datapath order.
type chromaPlan [chromaNv]fixed.Quantizer

// interpolate runs one chroma block through the compiled datapath into
// out.
func (p *chromaPlan) interpolate(out *block, src [][]float64, mv ChromaMV) error {
	var (
		inQ   = &p[0]
		hProd = p[1 : 1+chromaTaps]
		hOutQ = &p[1+chromaTaps]
		vProd = p[2+chromaTaps : 2+2*chromaTaps]
		vOutQ = &p[2+2*chromaTaps]
		outQ  = &p[3+2*chromaTaps]
	)
	if err := checkChromaWindow(src); err != nil {
		return err
	}
	var q [chromaWindow][chromaWindow]float64
	for y := range q {
		for x := range q[y] {
			q[y][x] = inQ.Quantize(src[y][x])
		}
	}
	var inter [chromaWindow][BlockSize]float64
	for y := 0; y < chromaWindow; y++ {
		for x := 0; x < BlockSize; x++ {
			if mv.FracX == 0 {
				inter[y][x] = hOutQ.Quantize(q[y][x+1])
				continue
			}
			fx, err := chromaFilterFor(mv.FracX)
			if err != nil {
				return err
			}
			var acc float64
			for t := 0; t < chromaTaps; t++ {
				acc += hProd[t].Quantize(fx[t] * q[y][x+t])
			}
			inter[y][x] = hOutQ.Quantize(acc)
		}
	}
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			var v float64
			if mv.FracY == 0 {
				v = inter[y+1][x]
			} else {
				fy, err := chromaFilterFor(mv.FracY)
				if err != nil {
					return err
				}
				var acc float64
				for t := 0; t < chromaTaps; t++ {
					acc += vProd[t].Quantize(fy[t] * inter[y+t][x])
				}
				v = vOutQ.Quantize(acc)
			}
			out[y][x] = outQ.Quantize(v)
		}
	}
	return nil
}

package bench

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/signal"
	"repro/internal/space"
)

// Surface is the Figure 1 data: the output noise power (dB) of the FIR
// filter as a function of the two word-lengths.
type Surface struct {
	// WMul and WAdd are the axis values (fractional word-lengths at the
	// multiplier and adder outputs).
	WMul, WAdd []int
	// PowerDB[i][j] is the noise power in dB at (WMul[i], WAdd[j]).
	PowerDB [][]float64
}

// Figure1Options parameterises the surface sweep.
type Figure1Options struct {
	Seed    uint64
	Samples int // input samples per evaluation (0: 1024)
	MinWL   int // lowest word-length (0: 2)
	MaxWL   int // highest word-length (0: 16)
}

// RunFigure1 sweeps the FIR word-length plane and returns the noise
// surface of Figure 1; cancelling ctx aborts the sweep.
func RunFigure1(ctx context.Context, opts Figure1Options) (*Surface, error) {
	n := opts.Samples
	if n == 0 {
		n = 1024
	}
	lo, hi := opts.MinWL, opts.MaxWL
	if lo == 0 {
		lo = 2
	}
	if hi == 0 {
		hi = 16
	}
	if lo > hi {
		return nil, fmt.Errorf("bench: figure1 word-length range [%d, %d] is empty", lo, hi)
	}
	b, err := signal.NewFIRBenchmark(opts.Seed, n)
	if err != nil {
		return nil, err
	}
	s := &Surface{}
	for w := lo; w <= hi; w++ {
		s.WMul = append(s.WMul, w)
		s.WAdd = append(s.WAdd, w)
	}
	for _, wm := range s.WMul {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row := make([]float64, 0, len(s.WAdd))
		for _, wa := range s.WAdd {
			p, err := b.NoisePower(space.Config{wm, wa})
			if err != nil {
				return nil, err
			}
			row = append(row, metrics.DB(p))
		}
		s.PowerDB = append(s.PowerDB, row)
	}
	return s, nil
}

// RenderCSV renders the surface as CSV with the adder word-length as
// columns, ready for any plotting tool.
func (s *Surface) RenderCSV() string {
	var b strings.Builder
	b.WriteString("wmul\\wadd")
	for _, wa := range s.WAdd {
		fmt.Fprintf(&b, ",%d", wa)
	}
	b.WriteString("\n")
	for i, wm := range s.WMul {
		fmt.Fprintf(&b, "%d", wm)
		for _, v := range s.PowerDB[i] {
			fmt.Fprintf(&b, ",%.2f", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

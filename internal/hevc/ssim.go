package hevc

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/space"
)

// SSIMBenchmark evaluates the motion-compensation module under the SSIM
// quality-of-service metric instead of noise power: λ is the mean
// structural similarity between the fixed-point prediction and the
// double-precision reference over the block set.
//
// This is the "any type of accuracy or quality metric" claim of the
// paper made concrete: the same datapath, the same optimiser and the same
// kriging evaluator run unchanged on a bounded, non-linear QoS metric
// whose interpolation error is reported as a relative difference
// (Eq. 12) rather than in bits.
type SSIMBenchmark struct {
	inner *Benchmark
}

// NewSSIMBenchmark builds the SSIM variant over the same synthetic block
// population as NewBenchmark.
func NewSSIMBenchmark(seed uint64, nBlocks int) (*SSIMBenchmark, error) {
	b, err := NewBenchmark(seed, nBlocks)
	if err != nil {
		return nil, err
	}
	return &SSIMBenchmark{inner: b}, nil
}

// Nv returns the number of optimisation variables (23).
func (b *SSIMBenchmark) Nv() int { return b.inner.Nv() }

// Bounds returns the word-length search box.
func (b *SSIMBenchmark) Bounds() space.Bounds { return b.inner.Bounds() }

// Evaluate returns λ(cfg) = mean SSIM across blocks. It satisfies
// evaluator.Simulator / optim.Oracle directly (no sign flip: SSIM is
// already higher-is-better).
func (b *SSIMBenchmark) Evaluate(cfg space.Config) (float64, error) {
	var p lumaPlan
	if err := b.inner.ip.path.Compile(p[:], cfg); err != nil {
		return 0, err
	}
	var out block
	var rows [BlockSize][]float64
	for y := range rows {
		rows[y] = out[y][:]
	}
	var sum float64
	for i := range b.inner.srcs {
		if err := p.interpolate(&out, b.inner.srcs[i], b.inner.mvs[i]); err != nil {
			return 0, err
		}
		s, err := metrics.SSIM(rows[:], b.inner.refs[i], 1)
		if err != nil {
			return 0, fmt.Errorf("hevc: SSIM of block %d: %w", i, err)
		}
		sum += s
	}
	return sum / float64(len(b.inner.srcs)), nil
}

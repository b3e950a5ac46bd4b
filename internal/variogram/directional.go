package variogram

import (
	"fmt"
	"math"
)

// DirectionalBin is one axis of a directional semivariogram study: the
// empirical bins computed over sample pairs separated along that axis
// only.
type DirectionalBin struct {
	Axis int
	Bins []Bin
}

// Directional computes per-axis empirical semivariograms: for each
// dimension d, Eq. 4 is evaluated over the pairs that differ in dimension
// d alone. Comparing the per-axis slopes reveals geometric anisotropy —
// in a word-length problem, which variables the metric is actually
// sensitive to.
func Directional(xs [][]float64, ys []float64, nv int) ([]DirectionalBin, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("variogram: %d coordinates but %d values", len(xs), len(ys))
	}
	if nv <= 0 {
		return nil, fmt.Errorf("variogram: non-positive dimension count %d", nv)
	}
	perAxis := make([][]Pair, nv)
	for i := 0; i < len(xs); i++ {
		if len(xs[i]) != nv {
			return nil, fmt.Errorf("variogram: sample %d has %d dimensions, want %d", i, len(xs[i]), nv)
		}
		for j := i + 1; j < len(xs); j++ {
			axis := -1
			aligned := true
			for d := 0; d < nv; d++ {
				if xs[i][d] != xs[j][d] {
					if axis != -1 {
						aligned = false
						break
					}
					axis = d
				}
			}
			if !aligned || axis == -1 {
				continue
			}
			dv := ys[i] - ys[j]
			perAxis[axis] = append(perAxis[axis], Pair{
				Dist: math.Abs(xs[i][axis] - xs[j][axis]),
				Sq:   dv * dv,
			})
		}
	}
	out := make([]DirectionalBin, nv)
	for d := 0; d < nv; d++ {
		out[d] = DirectionalBin{Axis: d, Bins: EmpiricalExact(perAxis[d])}
	}
	return out, nil
}

// AnisotropyRatio summarises a directional study as the ratio between the
// steepest and shallowest per-axis short-range slopes (γ at the smallest
// binned distance divided by that distance). Axes with no pairs are
// skipped; a ratio of 1 means the field looks isotropic, large ratios
// mean per-axis distance scaling would pay off. The boolean reports
// whether at least two axes had data.
func AnisotropyRatio(dirs []DirectionalBin) (float64, bool) {
	minSlope := math.Inf(1)
	maxSlope := math.Inf(-1)
	seen := 0
	for _, d := range dirs {
		if len(d.Bins) == 0 {
			continue
		}
		b := d.Bins[0]
		if b.Dist <= 0 {
			if len(d.Bins) < 2 {
				continue
			}
			b = d.Bins[1]
		}
		slope := b.Gamma / b.Dist
		if slope < minSlope {
			minSlope = slope
		}
		if slope > maxSlope {
			maxSlope = slope
		}
		seen++
	}
	if seen < 2 || minSlope <= 0 {
		return 1, seen >= 2
	}
	return maxSlope / minSlope, true
}

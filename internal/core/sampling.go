package core

import (
	"repro/internal/rng"
	"repro/internal/space"
)

// LatinHypercube draws n configurations from the integer box by Latin
// hypercube sampling: each dimension is divided into n equal strata, each
// stratum is hit exactly once, and the strata are paired across
// dimensions by independent random permutations. On an integer lattice
// the stratum midpoints are rounded to lattice points, so duplicates can
// occur when n exceeds a dimension's width; they are kept (the pilot
// simulator may memoise).
func LatinHypercube(b space.Bounds, n int, r *rng.Stream) []space.Config {
	if n <= 0 {
		return nil
	}
	nv := b.Dim()
	out := make([]space.Config, n)
	for i := range out {
		out[i] = make(space.Config, nv)
	}
	for dim := 0; dim < nv; dim++ {
		perm := r.Perm(n)
		width := float64(b.Hi[dim]-b.Lo[dim]) + 1
		for i := 0; i < n; i++ {
			// Jittered position inside stratum perm[i].
			u := (float64(perm[i]) + r.Float64()) / float64(n)
			v := b.Lo[dim] + int(u*width)
			if v > b.Hi[dim] {
				v = b.Hi[dim]
			}
			out[i][dim] = v
		}
	}
	return out
}

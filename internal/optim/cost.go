package optim

import "repro/internal/space"

// CostFunc scores the implementation cost C(e) of a configuration; the
// DSE problem of Eq. 1 minimises it subject to λ(e) >= λmin. For
// word-length problems the natural cost is the total number of bits.
type CostFunc func(cfg space.Config) float64

// TotalBits is the default cost: the sum of all word-lengths.
func TotalBits(cfg space.Config) float64 {
	s := 0
	for _, v := range cfg {
		s += v
	}
	return float64(s)
}

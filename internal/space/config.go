// Package space models the Nv-dimensional configuration hypercube the
// paper's optimisation algorithms travel through.
//
// A configuration is an integer vector e = (e_0, ..., e_{Nv-1}) of
// approximation knobs: word-lengths for the fixed-point benchmarks or
// error-power indices for the sensitivity-analysis benchmark. The paper
// measures proximity between configurations with the L1 norm (Algorithms
// 1-2, line 9), the one distance the store's neighbour search uses.
package space

import (
	"fmt"
	"strings"
)

// Config is an immutable-by-convention integer configuration vector.
type Config []int

// Clone returns an independent copy of c.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	copy(out, c)
	return out
}

// Equal reports whether c and o are the same vector.
func (c Config) Equal(o Config) bool {
	if len(c) != len(o) {
		return false
	}
	for i, v := range c {
		if v != o[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for use in maps.
func (c Config) Key() string {
	var b strings.Builder
	for i, v := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

// String renders the configuration as e.g. "(8,12,10)".
func (c Config) String() string { return "(" + c.Key() + ")" }

// Floats converts the configuration to a float64 slice, the coordinate
// form consumed by the kriging interpolator.
func (c Config) Floats() []float64 {
	out := make([]float64, len(c))
	for i, v := range c {
		out[i] = float64(v)
	}
	return out
}

// With returns a copy of c with dimension i set to v.
func (c Config) With(i, v int) Config {
	out := c.Clone()
	out[i] = v
	return out
}

// The L1 kernel below is unrolled four-wide with paired accumulators:
// the store's radius scan evaluates it against every stored entry that
// passes its word-length-sum filter (store NeighborsInto/NearestKInto),
// so it is among the hottest scalar loops in the system. Integer sums
// are exact under reordering, so the result is the serial sum's.

// L1 returns the L1 (Manhattan) distance between two configurations,
// the distance used by the paper (||w - w_sim||_1).
func L1(a, b Config) int {
	n := len(a)
	if n != len(b) {
		panic("space: L1 on configs of different dimension")
	}
	b = b[:n]
	var s0, s1 int
	i := 0
	for ; i+3 < n; i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		if d0 < 0 {
			d0 = -d0
		}
		if d1 < 0 {
			d1 = -d1
		}
		if d2 < 0 {
			d2 = -d2
		}
		if d3 < 0 {
			d3 = -d3
		}
		s0 += d0 + d2
		s1 += d1 + d3
	}
	for ; i < n; i++ {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		s0 += d
	}
	return s0 + s1
}

// Package space models the Nv-dimensional configuration hypercube the
// paper's optimisation algorithms travel through.
//
// A configuration is an integer vector e = (e_0, ..., e_{Nv-1}) of
// approximation knobs: word-lengths for the fixed-point benchmarks or
// error-power indices for the sensitivity-analysis benchmark. The paper
// measures proximity between configurations with the L1 norm (Algorithms
// 1-2, line 9); L2 and L∞ are provided as well for the ablation benches.
package space

import (
	"fmt"
	"math"
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

// The distance kernels below are unrolled four-wide with paired
// accumulators: the store's radius scan evaluates them against every
// stored entry (store NeighborsInto/NearestKInto), so they are among the
// hottest scalar loops in the system. Integer sums are exact under
// reordering, and the float accumulators pair up the same way in every
// call, so results are deterministic and identical across call sites.

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

// L2 returns the Euclidean distance between two configurations.
func L2(a, b Config) float64 {
	n := len(a)
	if n != len(b) {
		panic("space: L2 on configs of different dimension")
	}
	b = b[:n]
	var s0, s1 float64
	i := 0
	for ; i+1 < n; i += 2 {
		d0 := float64(a[i] - b[i])
		d1 := float64(a[i+1] - b[i+1])
		s0 += d0 * d0
		s1 += d1 * d1
	}
	if i < n {
		d := float64(a[i] - b[i])
		s0 += d * d
	}
	return math.Sqrt(s0 + s1)
}

// LInf returns the Chebyshev distance between two configurations.
func LInf(a, b Config) int {
	n := len(a)
	if n != len(b) {
		panic("space: LInf on configs of different dimension")
	}
	b = b[:n]
	var m0, m1 int
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
		if d2 > d0 {
			d0 = d2
		}
		if d3 > d1 {
			d1 = d3
		}
		if d0 > m0 {
			m0 = d0
		}
		if d1 > m1 {
			m1 = d1
		}
	}
	for ; i < n; i++ {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m0 {
			m0 = d
		}
	}
	if m1 > m0 {
		return m1
	}
	return m0
}

// Metric identifies a distance function on the configuration hypercube.
type Metric int

// Supported metrics. MetricL1 is the paper's choice.
const (
	MetricL1 Metric = iota
	MetricL2
	MetricLInf
)

// String returns the metric name.
func (m Metric) String() string {
	switch m {
	case MetricL1:
		return "L1"
	case MetricL2:
		return "L2"
	case MetricLInf:
		return "Linf"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Distance evaluates the metric between two configurations as a float64
// (integral metrics are widened).
func (m Metric) Distance(a, b Config) float64 {
	switch m {
	case MetricL1:
		return float64(L1(a, b))
	case MetricL2:
		return L2(a, b)
	case MetricLInf:
		return float64(LInf(a, b))
	default:
		panic("space: unknown metric")
	}
}

// DistanceFloats evaluates the metric between float coordinate vectors;
// kriging works in this continuous view of the hypercube.
func (m Metric) DistanceFloats(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("space: distance on vectors of different dimension")
	}
	n := len(a)
	b = b[:n]
	switch m {
	case MetricL1:
		var s0, s1 float64
		i := 0
		for ; i+1 < n; i += 2 {
			s0 += math.Abs(a[i] - b[i])
			s1 += math.Abs(a[i+1] - b[i+1])
		}
		if i < n {
			s0 += math.Abs(a[i] - b[i])
		}
		return s0 + s1
	case MetricL2:
		var s0, s1 float64
		i := 0
		for ; i+1 < n; i += 2 {
			d0 := a[i] - b[i]
			d1 := a[i+1] - b[i+1]
			s0 += d0 * d0
			s1 += d1 * d1
		}
		if i < n {
			d := a[i] - b[i]
			s0 += d * d
		}
		return math.Sqrt(s0 + s1)
	case MetricLInf:
		var m0, m1 float64
		i := 0
		for ; i+1 < n; i += 2 {
			if d := math.Abs(a[i] - b[i]); d > m0 {
				m0 = d
			}
			if d := math.Abs(a[i+1] - b[i+1]); d > m1 {
				m1 = d
			}
		}
		if i < n {
			if d := math.Abs(a[i] - b[i]); d > m0 {
				m0 = d
			}
		}
		if m1 > m0 {
			return m1
		}
		return m0
	default:
		panic("space: unknown metric")
	}
}

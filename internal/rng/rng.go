// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the repository.
//
// Every experiment in this reproduction must be bit-reproducible: the
// tables regenerated by cmd/table1 have to come out identical on every
// run. The standard library's math/rand global source is shared mutable
// state, so instead each subsystem derives its own independent Stream
// from a master seed via SplitMix64, following the recommended seeding
// procedure for the xoshiro family.
package rng

import "math"

// splitmix64 advances the SplitMix64 state and returns the next value.
// It is used both as a standalone generator for seeding and to expand a
// single user seed into the four words of xoshiro256** state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a deterministic random number generator based on
// xoshiro256**. The zero value is not valid; use New or NewNamed.
type Stream struct {
	s [4]uint64
	// gauss caching for the polar Box-Muller transform.
	hasGauss bool
	gauss    float64
}

// New returns a Stream seeded from the given seed. Two Streams built
// from the same seed produce identical sequences.
func New(seed uint64) *Stream {
	st := seed
	var r Stream
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro256** must not be seeded with all-zero state; SplitMix64
	// cannot produce four consecutive zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// NewNamed derives an independent Stream from a master seed and a name.
// It hashes the name with FNV-1a into the seed so that e.g. the "fir"
// and "fft" benchmarks get decorrelated streams from one experiment seed.
func NewNamed(seed uint64, name string) *Stream {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return New(seed ^ h)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation is overkill here;
	// simple rejection keeps the distribution exact.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// IntRange returns a uniform integer in [lo, hi] inclusive.
// It panics if hi < lo.
func (r *Stream) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Norm returns a standard normal variate using the polar Box-Muller
// transform, caching the second variate of each pair.
func (r *Stream) Norm() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s == 0 || s >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.hasGauss = true
		return u * f
	}
}

// NormScaled returns a normal variate with the given mean and standard
// deviation.
func (r *Stream) NormScaled(mean, stddev float64) float64 {
	return mean + stddev*r.Norm()
}

// Perm returns a uniformly random permutation of [0, n) using the
// Fisher-Yates shuffle.
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

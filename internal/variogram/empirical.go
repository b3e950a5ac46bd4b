package variogram

import (
	"math"
	"sort"
)

// Pair is a (distance, semivariance-contribution) observation:
// one couple (j, k) of sampled configurations at separation Dist with
// squared value difference Sq = (λ(e_j) - λ(e_k))².
type Pair struct {
	Dist float64
	Sq   float64
}

// CloudFromSamples builds the full variogram cloud from sample
// coordinates xs and values ys, using dist to measure separation.
// It is O(n²) in the number of samples; the paper's supports are tiny.
func CloudFromSamples(xs [][]float64, ys []float64, dist func(a, b []float64) float64) []Pair {
	n := len(xs)
	if len(ys) != n {
		panic("variogram: coordinate/value count mismatch")
	}
	pairs := make([]Pair, 0, n*(n-1)/2)
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			d := dist(xs[j], xs[k])
			dv := ys[j] - ys[k]
			pairs = append(pairs, Pair{Dist: d, Sq: dv * dv})
		}
	}
	return pairs
}

// Bin is one entry of the empirical semivariogram: the average
// semivariance Gamma over the |N(d)| pairs whose separation falls in
// the bin centred at Dist (Eq. 4 of the paper).
type Bin struct {
	Dist  float64 // representative distance (mean of member distances)
	Gamma float64 // (1 / 2|N(d)|) · Σ (λj - λk)²
	Count int     // |N(d)|
}

// EmpiricalExact computes the empirical semivariogram grouping pairs by
// exact distance value rather than by bins. On the integer configuration
// lattices of the paper (L1 distances are small integers) this is the
// most faithful reading of Eq. 4, where N(d) collects the couples at
// distance exactly d.
func EmpiricalExact(pairs []Pair) []Bin {
	byDist := make(map[float64]*Bin)
	for _, p := range pairs {
		if math.IsNaN(p.Dist) || p.Dist < 0 {
			continue
		}
		b, ok := byDist[p.Dist]
		if !ok {
			b = &Bin{Dist: p.Dist}
			byDist[p.Dist] = b
		}
		b.Gamma += p.Sq
		b.Count++
	}
	bins := make([]Bin, 0, len(byDist))
	for _, b := range byDist {
		b.Gamma /= 2 * float64(b.Count)
		bins = append(bins, *b)
	}
	sort.Slice(bins, func(i, j int) bool { return bins[i].Dist < bins[j].Dist })
	return bins
}

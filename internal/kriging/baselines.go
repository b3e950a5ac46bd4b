package kriging

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// IDW is the inverse-distance-weighting baseline interpolator:
// λ̂(x) = Σ w_k·λ_k / Σ w_k with w_k = 1 / d(x, x_k)^Power.
// It is not the paper's method; it exists to quantify, in the ablation
// benches, how much of the accuracy comes from kriging's variogram-aware
// weighting versus plain distance weighting.
type IDW struct {
	// Dist is the separation measure; nil means L1.
	Dist Distance
	// Power is the distance exponent; zero selects 2, the classical
	// Shepard choice.
	Power float64
}

// Name implements Interpolator.
func (w *IDW) Name() string { return "idw" }

// Predict implements Interpolator.
func (w *IDW) Predict(xs [][]float64, ys []float64, x []float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, ErrNoSupport
	}
	if len(ys) != n {
		return 0, fmt.Errorf("kriging: %d coordinates but %d values", n, len(ys))
	}
	dist := w.Dist
	if dist == nil {
		dist = L1Distance
	}
	p := w.Power
	if p == 0 {
		p = 2
	}
	var num, den float64
	for k := 0; k < n; k++ {
		d := dist(x, xs[k])
		if d == 0 {
			return ys[k], nil // exact hit
		}
		wk := 1 / math.Pow(d, p)
		num += wk * ys[k]
		den += wk
	}
	if den == 0 {
		return 0, ErrDegenerate
	}
	return num / den, nil
}

// Capped wraps another interpolator and restricts every prediction to
// the K nearest support points. Large kriging systems built from an
// unbounded variogram grow ill-conditioned; Numerical Recipes recommends
// keeping supports to "order 20 or fewer", and the evaluator uses the
// same cap, so cross-validation through Capped reflects production
// behaviour.
type Capped struct {
	Inner Interpolator
	K     int
	// Dist ranks the supports; nil means L1.
	Dist Distance
}

// Name implements Interpolator.
func (c *Capped) Name() string { return c.Inner.Name() + "-capped" }

// cappedCand is one ranked support candidate of a Capped selection.
type cappedCand struct {
	d float64
	i int
}

// cappedSorter orders candidates by (distance, original index) — the
// same total order a stable sort by distance produces — through a
// pointer receiver so sorting a pooled scratch never allocates.
type cappedSorter struct{ cands []cappedCand }

func (s *cappedSorter) Len() int      { return len(s.cands) }
func (s *cappedSorter) Swap(a, b int) { s.cands[a], s.cands[b] = s.cands[b], s.cands[a] }
func (s *cappedSorter) Less(a, b int) bool {
	if s.cands[a].d != s.cands[b].d {
		return s.cands[a].d < s.cands[b].d
	}
	return s.cands[a].i < s.cands[b].i
}

// cappedScratch holds the candidate ranking and the truncated support
// view of one Capped prediction, pooled across calls so the selection
// step is allocation-free on warm buffers.
type cappedScratch struct {
	sorter cappedSorter
	subX   [][]float64
	subY   []float64
}

var cappedPool = sync.Pool{New: func() any { return new(cappedScratch) }}

// Predict implements Interpolator.
func (c *Capped) Predict(xs [][]float64, ys []float64, x []float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, ErrNoSupport
	}
	if len(ys) != n {
		return 0, fmt.Errorf("kriging: %d coordinates but %d values", n, len(ys))
	}
	if c.K <= 0 || n <= c.K {
		return c.Inner.Predict(xs, ys, x)
	}
	dist := c.Dist
	if dist == nil {
		dist = L1Distance
	}
	sc := cappedPool.Get().(*cappedScratch)
	defer cappedPool.Put(sc)
	if cap(sc.sorter.cands) < n {
		sc.sorter.cands = make([]cappedCand, n)
	}
	sc.sorter.cands = sc.sorter.cands[:n]
	for i := range xs {
		sc.sorter.cands[i] = cappedCand{d: dist(x, xs[i]), i: i}
	}
	sort.Sort(&sc.sorter)
	if cap(sc.subX) < c.K {
		sc.subX = make([][]float64, c.K)
		sc.subY = make([]float64, c.K)
	}
	subX, subY := sc.subX[:c.K], sc.subY[:c.K]
	for i := 0; i < c.K; i++ {
		subX[i] = xs[sc.sorter.cands[i].i]
		subY[i] = ys[sc.sorter.cands[i].i]
	}
	// The truncated views alias the scratch; no Interpolator in this
	// package retains its support, so handing them to Inner is safe.
	return c.Inner.Predict(subX, subY, x)
}

// Nearest is the 1-nearest-neighbour baseline interpolator: the value of
// the closest support point. Ties resolve to the lowest index, keeping
// the predictor deterministic.
type Nearest struct {
	// Dist is the separation measure; nil means L1.
	Dist Distance
}

// Name implements Interpolator.
func (nn *Nearest) Name() string { return "nearest" }

// Predict implements Interpolator.
func (nn *Nearest) Predict(xs [][]float64, ys []float64, x []float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, ErrNoSupport
	}
	if len(ys) != n {
		return 0, fmt.Errorf("kriging: %d coordinates but %d values", n, len(ys))
	}
	dist := nn.Dist
	if dist == nil {
		dist = L1Distance
	}
	best := 0
	bestD := dist(x, xs[0])
	for k := 1; k < n; k++ {
		if d := dist(x, xs[k]); d < bestD {
			best, bestD = k, d
		}
	}
	return ys[best], nil
}

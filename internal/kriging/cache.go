package kriging

import (
	"container/list"
	"math"
	"sync"

	"repro/internal/fnv1a"
	"repro/internal/linalg"
	"repro/internal/variogram"
)

// DefaultCacheSize is the capacity of every Ordinary and Simple
// interpolator's factored-system cache.
const DefaultCacheSize = 128

// factored is a reusable kriging system: the variogram model identified
// on a support set together with the factorisation of the assembled
// matrix, built from scratch for exactly that support. Building one
// costs O(n³); reusing it answers further queries on the same support in
// O(n²) (assemble the right-hand side, two triangular solves). The min+1
// competition is the motivating workload: sibling candidates share one
// incumbent's neighbourhood.
//
// A factored system is immutable after construction and safe for
// concurrent solves.
type factored struct {
	model variogram.Model
	// lu is the pivoted-LU factor of the ordinary-kriging saddle system
	// (or of a simple-kriging covariance matrix that defeated Cholesky).
	lu *linalg.LU
	// chol is the Cholesky factor of a simple-kriging covariance system.
	chol *linalg.Cholesky
	// sill is the covariance ceiling of a simple-kriging system; unused
	// (zero) for the ordinary saddle system.
	sill float64
}

// solveBatchInto solves the factored system for k right-hand sides
// packed column-major into rhs, writing the solution columns into dst.
// It is the only solve behind a prediction: a single query is the k=1
// case, which the linalg batch solvers hand to their single-column
// kernel. dst must not alias rhs.
func (sys *factored) solveBatchInto(dst, rhs []float64, k int) error {
	if sys.chol != nil {
		return sys.chol.SolveBatchInto(dst, rhs, k)
	}
	return sys.lu.SolveBatchInto(dst, rhs, k)
}

// predictScratch is the per-goroutine buffer set of one prediction:
// right-hand sides, solved weights, and the variance sink of
// Ordinary.PredictBatch. Pooled so a cache-hit prediction performs zero
// heap allocations.
type predictScratch struct {
	rhs, w, vars []float64
}

var predictPool = sync.Pool{New: func() any { return new(predictScratch) }}

// growFloats resizes *buf to n elements, reallocating only on growth.
func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// cacheRecord is one LRU slot: the fingerprint key plus defensive copies
// of the support used to rule out fingerprint collisions on hit.
type cacheRecord struct {
	key uint64
	xs  [][]float64
	ys  []float64
	sys *factored
}

// factorer builds the kriging system of one interpolator from scratch.
type factorer interface {
	factor(xs [][]float64, ys []float64) (*factored, error)
}

// systemCache is a mutex-guarded LRU map from support fingerprints to
// factored systems, reused only on an exact support match. It is shared
// by concurrent predictions; the lock is held only for the map/list
// bookkeeping, never during factorisation. The zero value is an empty
// cache of DefaultCacheSize entries.
//
// The cache earns its place on the warm path, not the cold one: the
// default interpolator refits the variogram for every new support, so a
// repeated support would otherwise pay the fit's allocations and the
// O(n³) factorisation again. The zero-allocation gates
// (TestAllocs*PredictCacheHit, TestAllocsEvaluateInterpolated, the warm
// PredictBatch rows) and the time-gated blocked PredictBatch benchmark
// rows measure that path.
type systemCache struct {
	mu sync.Mutex
	// capacity bounds the entry count; zero means DefaultCacheSize.
	capacity int
	items    map[uint64]*list.Element
	order    list.List // front = most recently used
}

// system returns f's factored system for exactly the support (xs, ys),
// from the cache when the same support was factored recently and from a
// fresh factorisation otherwise.
func (c *systemCache) system(f factorer, xs [][]float64, ys []float64) (*factored, error) {
	key := supportFingerprint(xs, ys)
	if sys, ok := c.get(key, xs, ys); ok {
		return sys, nil
	}
	sys, err := f.factor(xs, ys)
	if err != nil {
		return nil, err
	}
	c.add(key, xs, ys, sys)
	return sys, nil
}

// get returns the cached system for the support, verifying the actual
// coordinates and values so a fingerprint collision can never hand back
// the wrong factorisation.
func (c *systemCache) get(key uint64, xs [][]float64, ys []float64) (*factored, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	rec := el.Value.(*cacheRecord)
	if !supportEqual(rec.xs, rec.ys, xs, ys) {
		return nil, false
	}
	c.order.MoveToFront(el)
	return rec.sys, true
}

// add inserts a freshly factored system, evicting the least recently used
// slot when full. The support slices are copied: neighbourhood buffers
// may be reused by callers between queries.
func (c *systemCache) add(key uint64, xs [][]float64, ys []float64, sys *factored) {
	xsCopy := make([][]float64, len(xs))
	for i, x := range xs {
		xsCopy[i] = append([]float64(nil), x...)
	}
	rec := &cacheRecord{key: key, xs: xsCopy, ys: append([]float64(nil), ys...), sys: sys}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value = rec
		c.order.MoveToFront(el)
		return
	}
	if c.items == nil {
		c.items = make(map[uint64]*list.Element)
	}
	c.items[key] = c.order.PushFront(rec)
	limit := c.capacity
	if limit == 0 {
		limit = DefaultCacheSize
	}
	for c.order.Len() > limit {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*cacheRecord).key)
	}
}

// len reports the current number of cached systems.
func (c *systemCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// supportFingerprint hashes a support set (coordinates and values) with
// 64-bit FNV-1a over the raw float bits.
func supportFingerprint(xs [][]float64, ys []float64) uint64 {
	h := fnv1a.Mix(fnv1a.Offset, uint64(len(xs)))
	for _, x := range xs {
		h = fnv1a.Mix(h, uint64(len(x)))
		for _, v := range x {
			h = fnv1a.Mix(h, math.Float64bits(v))
		}
	}
	for _, v := range ys {
		h = fnv1a.Mix(h, math.Float64bits(v))
	}
	return h
}

// supportEqual reports whether two support sets are bit-identical.
func supportEqual(axs [][]float64, ays []float64, bxs [][]float64, bys []float64) bool {
	if len(axs) != len(bxs) || len(ays) != len(bys) {
		return false
	}
	for i, ax := range axs {
		bx := bxs[i]
		if len(ax) != len(bx) {
			return false
		}
		for j, v := range ax {
			if math.Float64bits(v) != math.Float64bits(bx[j]) {
				return false
			}
		}
	}
	for i, v := range ays {
		if math.Float64bits(v) != math.Float64bits(bys[i]) {
			return false
		}
	}
	return true
}

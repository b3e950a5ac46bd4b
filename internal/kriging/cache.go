package kriging

import (
	"container/list"
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/fnv1a"
	"repro/internal/linalg"
	"repro/internal/variogram"
)

// DefaultCacheSize is the factored-system cache capacity selected when an
// interpolator's CacheSize field is zero.
const DefaultCacheSize = 128

// maxIncrementalAppend bounds how many trailing points a requested
// support may add over a cached one and still take the incremental
// extension path. Sequential infill grows the support one point per
// round, so a small window catches the motivating workload without
// turning every miss into a prefix search.
const maxIncrementalAppend = 4

// maxExtendChain bounds how many points a factor may accumulate through
// incremental extensions before the next growth forces a full
// refactorisation. Each unpivoted border adds rounding error of its own;
// periodic refactoring keeps the drift far inside the documented 1e-9
// equivalence tolerance.
const maxExtendChain = 32

// errNotExtendable marks a cached system the incremental path cannot
// grow (flat or LU-fallback simple systems, over-long extension chains);
// callers fall back to a full factorisation.
var errNotExtendable = errors.New("kriging: cached system not extendable")

// factored is a reusable kriging system: the variogram model identified
// on a support set together with the factorisation of the assembled
// matrix. Building one costs O(n³); reusing it answers further queries on
// the same support in O(n²) (assemble the right-hand side, two triangular
// solves), and growing it by one support point costs O(n²) through the
// linalg bordered updates instead of a refactorisation. The min+1
// competition and sequential infill are the motivating workloads: sibling
// candidates share one incumbent's neighbourhood, and each infill round
// reuses the previous round's support plus the freshly simulated point.
//
// A factored system is immutable after construction and safe for
// concurrent solves; extensions build a new system around a fresh factor.
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
	// cholesky records whether the system was factored by Cholesky
	// (symmetric positive definite covariance form) or fell back to LU
	// (the indefinite ordinary-kriging saddle matrix).
	cholesky bool
	// n is the number of support points behind the factor; base is what
	// it was when the factor was last built from scratch. For an extended
	// ordinary system the appended points live after the Lagrange row in
	// factor ordering, so solves go through a positional permutation.
	n, base int
	// scale is the largest off-diagonal semivariance seen at assembly,
	// the base of the diagonal jitter; extensions keep it current so the
	// appended diagonals use the same regularisation rule.
	scale float64
}

// extended reports how many support points were appended since the last
// full factorisation.
func (sys *factored) extended() int { return sys.n - sys.base }

// logicalIndex maps a factor row position to its logical saddle-system
// index (supports 0..n-1 in insertion order, Lagrange row last). The
// factor ordering of an extended system is
//
//	[x_0 .. x_{base-1}, Lagrange, x_base .. x_{n-1}]
//
// because borders can only be appended after the existing rows.
func (sys *factored) logicalIndex(pos int) int {
	switch {
	case pos < sys.base:
		return pos
	case pos == sys.base:
		return sys.n // Lagrange row
	default:
		return pos - 1
	}
}

// solveBatchInto solves the factored system for k right-hand sides of
// length m packed column-major into rhs (each column in logical order),
// writing the solution columns into dst; incrementally grown factors
// re-permute each column through logicalIndex, using s for scratch. It
// is the only solve behind a prediction: a single query is the k=1
// case, which the linalg batch solvers hand to their single-column
// kernel. dst must not alias rhs.
func (sys *factored) solveBatchInto(dst, rhs []float64, m, k int, s *predictScratch) error {
	if sys.chol != nil {
		return sys.chol.SolveBatchInto(dst, rhs, k)
	}
	if sys.lu == nil {
		return errNotExtendable
	}
	if sys.extended() == 0 {
		return sys.lu.SolveBatchInto(dst, rhs, k)
	}
	pb := growFloats(&s.pb, m*k)
	for j := 0; j < k; j++ {
		col := rhs[j*m : (j+1)*m]
		pcol := pb[j*m : (j+1)*m]
		for pos := 0; pos < m; pos++ {
			pcol[pos] = col[sys.logicalIndex(pos)]
		}
	}
	sol := growFloats(&s.sol, m*k)
	if err := sys.lu.SolveBatchInto(sol, pb, k); err != nil {
		return err
	}
	for j := 0; j < k; j++ {
		dcol := dst[j*m : (j+1)*m]
		scol := sol[j*m : (j+1)*m]
		for pos := 0; pos < m; pos++ {
			dcol[sys.logicalIndex(pos)] = scol[pos]
		}
	}
	return nil
}

// predictScratch is the per-goroutine buffer set of one prediction:
// right-hand side, solved weights, and the permutation scratch of
// extended factors. Pooled so a cache-hit prediction performs zero heap
// allocations.
type predictScratch struct {
	rhs, w, pb, sol []float64
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

// systemCache is a mutex-guarded LRU map from support fingerprints to
// factored systems. It is shared by concurrent predictions; the lock is
// held only for the map/list bookkeeping, never during factorisation.
type systemCache struct {
	mu    sync.Mutex
	cap   int
	items map[uint64]*list.Element
	order *list.List // front = most recently used
	// incrementalHits counts factor extensions served instead of full
	// refactorisations — observability for tests and stats.
	incrementalHits atomic.Int64
}

func newSystemCache(capacity int) *systemCache {
	return &systemCache{
		cap:   capacity,
		items: make(map[uint64]*list.Element, capacity),
		order: list.New(),
	}
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

// getPrefix looks for a cached system whose support is a strict prefix
// of (xs, ys) missing at most maxAppend trailing points — the sequential
// infill shape, where each round's support is the previous round's plus
// the freshly simulated configurations. It returns the cached system and
// the prefix length. Only called on an exact-fingerprint miss.
func (c *systemCache) getPrefix(xs [][]float64, ys []float64, maxAppend int) (*factored, int, bool) {
	n := len(xs)
	for m := n - 1; m >= n-maxAppend && m >= 2; m-- {
		key := supportFingerprint(xs[:m], ys[:m])
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			rec := el.Value.(*cacheRecord)
			if supportEqual(rec.xs, rec.ys, xs[:m], ys[:m]) {
				sys := rec.sys
				c.order.MoveToFront(el)
				c.mu.Unlock()
				return sys, m, true
			}
		}
		c.mu.Unlock()
	}
	return nil, 0, false
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
	c.items[key] = c.order.PushFront(rec)
	for c.order.Len() > c.cap {
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

// resolveCache interprets the shared CacheSize convention: zero selects
// DefaultCacheSize, negative disables caching.
func resolveCache(once *sync.Once, cache **systemCache, size int) *systemCache {
	once.Do(func() {
		if size >= 0 {
			if size == 0 {
				size = DefaultCacheSize
			}
			*cache = newSystemCache(size)
		}
	})
	return *cache
}

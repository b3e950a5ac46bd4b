package kriging

import (
	"sync"

	"repro/internal/linalg"
	"repro/internal/variogram"
)

// factored is one support's kriging system: the variogram model used on
// that support together with the factorisation of the assembled matrix.
// Building one costs O(n³); each query solved against it costs O(n²)
// (assemble the right-hand side, two triangular solves), which is why a
// batch of queries sharing a support builds it once. Its factor points
// into the predictScratch of the call that built it.
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
func (sys factored) solveBatchInto(dst, rhs []float64, k int) error {
	if sys.chol != nil {
		return sys.chol.SolveBatchInto(dst, rhs, k)
	}
	return sys.lu.SolveBatchInto(dst, rhs, k)
}

// predictScratch is the per-goroutine buffer set of one batch call: the
// system matrix (Γ or C), its factors, the fitted power model, and the
// right-hand-side, weight and variance blocks. Pooled, so once its buffers have grown to the support
// size, building a system and answering a batch allocate nothing.
type predictScratch struct {
	g     linalg.Matrix
	lu    linalg.LU
	chol  linalg.Cholesky
	power variogram.PowerModel

	rhs, w, vars []float64
}

var predictPool = sync.Pool{New: func() any { return new(predictScratch) }}

// matrix returns the scratch system matrix as a zeroed m×m matrix.
func (s *predictScratch) matrix(m int) *linalg.Matrix {
	g := &s.g
	g.Rows, g.Cols = m, m
	clear(growFloats(&g.Data, m*m))
	return g
}

// growFloats resizes *buf to n elements, reallocating only on growth.
func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

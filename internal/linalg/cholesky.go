package linalg

import (
	"fmt"
	"math"
)

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L·Lᵀ.
type Cholesky struct {
	l *Matrix
	n int
}

// FactorizeCholesky computes the Cholesky factorisation of the symmetric
// positive definite matrix a. Only the lower triangle of a is read.
// It returns ErrSingular when the matrix is not positive definite.
func FactorizeCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: Cholesky of %dx%d", ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				// !(s > 0) rather than s <= 0: a NaN pivot (non-finite
				// input) must be rejected, not passed to Sqrt.
				if !(s > 0) {
					return nil, fmt.Errorf("%w: non-positive diagonal at %d", ErrSingular, i)
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return &Cholesky{l: l, n: n}, nil
}

// Solve solves A·x = b given the factorisation.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	x := make([]float64, c.n)
	if err := c.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A·x = b into dst, allocation-free. dst may alias b
// (the forward sweep reads b[i] exactly once, before writing dst[i]);
// partial overlap of distinct slices is not supported.
func (c *Cholesky) SolveInto(dst, b []float64) error {
	if len(b) != c.n || len(dst) != c.n {
		return fmt.Errorf("%w: rhs length %d, dst length %d, want %d", ErrShape, len(b), len(dst), c.n)
	}
	n := c.n
	// Forward: L·y = b, y landing in dst.
	for i := 0; i < n; i++ {
		row := c.l.Data[i*n : i*n+i+1]
		dst[i] = (b[i] - dotUnrolled(row[:i], dst)) / row[i]
	}
	// Backward: Lᵀ·x = y, in place.
	for i := n - 1; i >= 0; i-- {
		s := strideDot(c.l.Data, (i+1)*n+i, n, dst[i+1:n])
		dst[i] = (dst[i] - s) / c.l.Data[i*n+i]
	}
	return nil
}

// Size returns the dimension of the factored matrix.
func (c *Cholesky) Size() int { return c.n }

// cholAppendTol is the health threshold of AppendRow: the squared new
// diagonal pivot must retain at least this fraction of the magnitudes it
// was computed from, or the update is rejected as numerically unsafe
// (catastrophic cancellation would poison every later solve). Callers
// fall back to a full refactorisation on rejection.
const cholAppendTol = 1e-8

// AppendRow extends the factorisation of the n×n matrix A to the
// bordered (n+1)×(n+1) matrix
//
//	A' = ⎡A     row⎤
//	     ⎣rowᵀ diag⎦
//
// in O(n²): one triangular solve for the new off-diagonal row of L plus
// a square root for the new diagonal. The receiver is not modified; the
// returned factor shares no state with it, so cached factors can keep
// serving concurrent solves while extensions are built.
//
// It returns ErrSingular when A' is not (safely) positive definite —
// the new diagonal pivot is non-positive or has lost nearly all its
// precision to cancellation — in which case the caller should
// refactorise from scratch.
func (c *Cholesky) AppendRow(row []float64, diag float64) (*Cholesky, error) {
	if len(row) != c.n {
		return nil, fmt.Errorf("%w: appended row length %d, want %d", ErrShape, len(row), c.n)
	}
	n := c.n
	m := n + 1
	l := NewMatrix(m, m)
	for i := 0; i < n; i++ {
		copy(l.Data[i*m:i*m+i+1], c.l.Data[i*n:i*n+i+1])
	}
	// New off-diagonal row v: L·v = row (forward substitution), read from
	// the old factor, written into the new last row.
	last := l.Data[n*m : n*m+m]
	var sq float64
	for i := 0; i < n; i++ {
		ri := c.l.Data[i*n : i*n+i+1]
		s := row[i]
		for k := 0; k < i; k++ {
			s -= ri[k] * last[k]
		}
		v := s / ri[i]
		last[i] = v
		sq += v * v
	}
	// New diagonal: l² = diag - v·v, guarded against cancellation. The
	// guard must fail CLOSED on non-finite pivots: a NaN d2 (duplicate
	// support points pushed through a degenerate anisotropy transform
	// yield NaN distances, hence NaN rows) compares false against every
	// threshold, and the old `d2 <= 0 || d2 < tol·(...)` form let
	// sqrt(NaN) poison the factor while reporting success.
	d2 := diag - sq
	if !(d2 > 0) || math.IsInf(d2, 0) || d2 < cholAppendTol*(math.Abs(diag)+sq) {
		return nil, fmt.Errorf("%w: appended diagonal pivot %g below health threshold", ErrSingular, d2)
	}
	last[n] = math.Sqrt(d2)
	return &Cholesky{l: l, n: m}, nil
}

// L returns a copy of the lower-triangular factor.
func (c *Cholesky) L() *Matrix { return c.l.Clone() }

// Dot returns the inner product of two equal-length vectors. It uses
// the same two-chain accumulation as the triangular-solve kernels, so
// callers composing predictions from Dot calls get results bit-identical
// to the blocked batch paths built on the same kernels.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	return dotUnrolled(a, b)
}

// Dot4 returns a·x0, a·x1, a·x2, a·x3 in one pass through the
// shared-coefficient 4-wide kernel. Each result is bit-identical to the
// corresponding Dot(a, xi) (and, multiplication being commutative, to
// Dot(xi, a)) — the batch prediction output loops use it to compute four
// queries' weight·value dots per sweep over the shared value vector.
func Dot4(a, x0, x1, x2, x3 []float64) (r0, r1, r2, r3 float64) {
	if len(a) != len(x0) || len(a) != len(x1) || len(a) != len(x2) || len(a) != len(x3) {
		panic("linalg: Dot4 length mismatch")
	}
	return dotUnrolled4(a, x0, x1, x2, x3)
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// NormInf returns the max-abs norm of v.
func NormInf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// AXPY computes y := a·x + y in place and returns y.
func AXPY(a float64, x, y []float64) []float64 {
	if len(x) != len(y) {
		panic("linalg: AXPY length mismatch")
	}
	axpyUnrolled(a, x, y)
	return y
}

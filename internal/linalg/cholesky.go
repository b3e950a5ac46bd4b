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

package linalg

import (
	"fmt"
	"math"
)

// LU holds an LU factorisation with partial pivoting: P·A = L·U where L is
// unit lower triangular and U is upper triangular, both packed into lu.
// The zero value is an empty factor, ready for Factorize.
type LU struct {
	lu  Matrix
	piv []int // row permutation: piv[i] is the original row in position i
	n   int
}

// Factorize computes into f the LU decomposition of the square matrix a
// using Doolittle's method with partial (row) pivoting. It reuses f's
// buffers, so refactoring an f that has held a system at least as large
// allocates nothing. The input is not modified. It returns ErrSingular
// when a pivot is exactly zero, and f then solves nothing until the next
// successful Factorize.
func Factorize(f *LU, a *Matrix) error {
	f.n = 0
	if a.Rows != a.Cols {
		return fmt.Errorf("%w: LU of %dx%d", ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	lu := &f.lu
	lu.reshape(n, n)
	copy(lu.Data, a.Data)
	if cap(f.piv) < n {
		f.piv = make([]int, n)
	}
	piv := f.piv[:n]
	f.piv = piv
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Find pivot row.
		p := k
		mx := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > mx {
				mx, p = v, i
			}
		}
		if mx == 0 {
			return fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		if p != k {
			// Swap full rows p and k.
			rp := lu.Data[p*n : (p+1)*n]
			rk := lu.Data[k*n : (k+1)*n]
			for j := 0; j < n; j++ {
				rp[j], rk[j] = rk[j], rp[j]
			}
			piv[p], piv[k] = piv[k], piv[p]
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivVal
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			ri := lu.Data[i*n : (i+1)*n]
			rk := lu.Data[k*n : (k+1)*n]
			axpyUnrolled(-f, rk[k+1:n], ri[k+1:n])
		}
	}
	f.n = n
	return nil
}

// SolveInto solves A·x = b into dst, allocation-free. dst must not alias
// b: the row permutation scatters b into dst before the substitution
// sweeps.
func (f *LU) SolveInto(dst, b []float64) error {
	if len(b) != f.n || len(dst) != f.n {
		return fmt.Errorf("%w: rhs length %d, dst length %d, want %d", ErrShape, len(b), len(dst), f.n)
	}
	n := f.n
	x := dst
	// Apply permutation: x = P·b.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := f.lu.Data[i*n : (i+1)*n]
		x[i] -= dotUnrolled(row[:i], x)
	}
	// Backward substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Data[i*n : (i+1)*n]
		s := dotUnrolled(row[i+1:n], x[i+1:n])
		x[i] = (x[i] - s) / row[i]
	}
	return nil
}

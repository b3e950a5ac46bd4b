package linalg

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomMatrix(r *rng.Stream, n int) *Matrix {
	m := newMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = r.NormScaled(0, 1)
	}
	return m
}

// The helpers below are the test-side matrix algebra the factorisation
// tests check residuals and reconstructions with.

// newMatrix allocates a zeroed r×c matrix.
func newMatrix(r, c int) *Matrix {
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// factorize returns a fresh LU factor of a.
func factorize(a *Matrix) (*LU, error) {
	f := new(LU)
	if err := Factorize(f, a); err != nil {
		return nil, err
	}
	return f, nil
}

// factorizeCholesky returns a fresh Cholesky factor of a.
func factorizeCholesky(a *Matrix) (*Cholesky, error) {
	c := new(Cholesky)
	if err := FactorizeCholesky(c, a); err != nil {
		return nil, err
	}
	return c, nil
}

// fromRows builds a matrix from equal-length rows.
func fromRows(rows [][]float64) *Matrix {
	m := newMatrix(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.Cols {
			panic("fromRows: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], row)
	}
	return m
}

func identity(n int) *Matrix {
	m := newMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func transpose(m *Matrix) *Matrix {
	out := newMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

func mul(a, b *Matrix) *Matrix {
	out := newMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func mulVec(m *Matrix, x []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		for j, v := range x {
			out[i] += m.At(i, j) * v
		}
	}
	return out
}

// maxAbs returns the largest absolute entry of v.
func maxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

// solve is the allocating form of SolveInto.
func solve(f interface{ SolveInto(dst, b []float64) error }, b []float64) ([]float64, error) {
	x := make([]float64, len(b))
	return x, f.SolveInto(x, b)
}

// solveLU factors a and solves a·x = b.
func solveLU(a *Matrix, b []float64) ([]float64, error) {
	f, err := factorize(a)
	if err != nil {
		return nil, err
	}
	return solve(f, b)
}

func TestStringRenders(t *testing.T) {
	a := fromRows([][]float64{{1, 2}})
	if a.String() == "" {
		t.Error("String returned empty output")
	}
}

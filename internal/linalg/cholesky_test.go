package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// randomSPD builds a random symmetric positive definite matrix A = MᵀM + εI.
func randomSPD(r *rng.Stream, n int) *Matrix {
	m := randomMatrix(r, n)
	spd := mul(transpose(m), m)
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+0.1)
	}
	return spd
}

func TestCholeskyKnown(t *testing.T) {
	a := fromRows([][]float64{
		{4, 12, -16},
		{12, 37, -43},
		{-16, -43, 98},
	})
	c, err := factorizeCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := c.l
	want := [][]float64{
		{2, 0, 0},
		{6, 1, 0},
		{-8, 5, 3},
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !almostEqual(l.At(i, j), want[i][j], 1e-10) {
				t.Errorf("L[%d][%d] = %v, want %v", i, j, l.At(i, j), want[i][j])
			}
		}
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	r := rng.New(5)
	a := randomSPD(r, 6)
	c, err := factorizeCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	llt := mul(&c.l, transpose(&c.l))
	for i := range a.Data {
		if !almostEqual(llt.Data[i], a.Data[i], 1e-8*(1+math.Abs(a.Data[i]))) {
			t.Fatal("L·Lᵀ does not reconstruct A")
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	r := rng.New(6)
	a := randomSPD(r, 5)
	b := []float64{1, -2, 3, -4, 5}
	c, err := factorizeCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := solve(c, b)
	if err != nil {
		t.Fatal(err)
	}
	ax := mulVec(a, x)
	for i := range b {
		if !almostEqual(ax[i], b[i], 1e-7) {
			t.Fatalf("residual %v at %d", ax[i]-b[i], i)
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := fromRows([][]float64{
		{1, 2},
		{2, 1}, // eigenvalues 3 and -1
	})
	if _, err := factorizeCholesky(a); !errors.Is(err, ErrSingular) {
		t.Errorf("indefinite matrix: err = %v, want ErrSingular", err)
	}
}

func TestCholeskyNonSquare(t *testing.T) {
	if _, err := factorizeCholesky(newMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Error("non-square accepted")
	}
}

func TestCholeskySolveWrongRHS(t *testing.T) {
	c, err := factorizeCholesky(identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solve(c, []float64{1}); !errors.Is(err, ErrShape) {
		t.Error("short rhs accepted")
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot length mismatch did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestPropertyCholeskyMatchesLU(t *testing.T) {
	// Both factorisations must solve SPD systems identically.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(6)
		a := randomSPD(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormScaled(0, 3)
		}
		c, err := factorizeCholesky(a)
		if err != nil {
			return false // SPD construction guarantees success
		}
		x1, err := solve(c, b)
		if err != nil {
			return false
		}
		x2, err := solveLU(a, b)
		if err != nil {
			return false
		}
		for i := range x1 {
			if !almostEqual(x1[i], x2[i], 1e-6*(1+math.Abs(x2[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCholeskySolveInto pins the in-place solve against a fresh-buffer
// solve, including
// the documented dst==b aliasing mode.
func TestCholeskySolveInto(t *testing.T) {
	r := rng.New(45)
	a := randomSPD(r, 9)
	c, err := factorizeCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 9)
	for i := range b {
		b[i] = r.NormScaled(0, 2)
	}
	want, err := solve(c, b)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 9)
	if err := c.SolveInto(dst, b); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("SolveInto[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	alias := append([]float64(nil), b...)
	if err := c.SolveInto(alias, alias); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if alias[i] != want[i] {
			t.Fatalf("aliased SolveInto[%d] = %v, want %v", i, alias[i], want[i])
		}
	}
	if err := c.SolveInto(dst[:3], b); !errors.Is(err, ErrShape) {
		t.Fatalf("short dst accepted: %v", err)
	}
}

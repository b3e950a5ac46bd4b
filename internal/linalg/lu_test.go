package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestLUSolveKnown(t *testing.T) {
	a, _ := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := Solve(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-10) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestLUSolveResidual(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(10)
		a := randomMatrix(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormScaled(0, 1)
		}
		x, err := Solve(a, b)
		if err != nil {
			// Random Gaussian matrices are almost never singular, but a
			// singular draw is a legal outcome, not a test failure.
			continue
		}
		ax, err := a.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b {
			if !almostEqual(ax[i], b[i], 1e-7*(1+math.Abs(b[i]))) {
				t.Fatalf("trial %d: residual %v at %d", trial, ax[i]-b[i], i)
			}
		}
	}
}

func TestLUSingular(t *testing.T) {
	a, _ := FromRows([][]float64{
		{1, 2},
		{2, 4},
	})
	if _, err := Factorize(a); !errors.Is(err, ErrSingular) {
		t.Errorf("singular matrix: err = %v, want ErrSingular", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := Factorize(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("non-square: err = %v, want ErrShape", err)
	}
}

func TestLUSolveWrongRHS(t *testing.T) {
	f, err := Factorize(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Errorf("short rhs: err = %v, want ErrShape", err)
	}
}

func TestDetKnown(t *testing.T) {
	a, _ := FromRows([][]float64{
		{3, 8},
		{4, 6},
	})
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Det(); !almostEqual(d, -14, 1e-10) {
		t.Errorf("det = %v, want -14", d)
	}
}

func TestDetIdentity(t *testing.T) {
	f, err := Factorize(Identity(5))
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Det(); !almostEqual(d, 1, 1e-12) {
		t.Errorf("det(I) = %v", d)
	}
}

func TestDetPermutationSign(t *testing.T) {
	// A row swap of the identity has determinant -1; this exercises the
	// pivot sign tracking.
	a, _ := FromRows([][]float64{
		{0, 1},
		{1, 0},
	})
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Det(); !almostEqual(d, -1, 1e-12) {
		t.Errorf("det(swap) = %v, want -1", d)
	}
}

func TestInverseTimesOriginal(t *testing.T) {
	r := rng.New(21)
	a := randomMatrix(r, 5)
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := a.Mul(inv)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEqual(prod.At(i, j), want, 1e-8) {
				t.Fatalf("A·A⁻¹[%d][%d] = %v", i, j, prod.At(i, j))
			}
		}
	}
}

func TestMinPivotPositive(t *testing.T) {
	f, err := Factorize(Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	if f.MinPivot() != 1 {
		t.Errorf("MinPivot(I) = %v", f.MinPivot())
	}
}

func TestPropertySolveResidualSmall(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(8)
		a := randomMatrix(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormScaled(0, 10)
		}
		x, err := Solve(a, b)
		if err != nil {
			return true // singular draw is acceptable
		}
		ax, err := a.MulVec(x)
		if err != nil {
			return false
		}
		// Residual relative to the conditioning proxy.
		scale := a.MaxAbs()*NormInf(x) + NormInf(b) + 1
		return NormInf(AXPY(-1, b, ax)) <= 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDetProductRule(t *testing.T) {
	// det(A·B) == det(A)·det(B) within tolerance.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(5)
		a := randomMatrix(r, n)
		b := randomMatrix(r, n)
		fa, err1 := Factorize(a)
		fb, err2 := Factorize(b)
		ab, err3 := a.Mul(b)
		if err1 != nil || err2 != nil || err3 != nil {
			return true
		}
		fab, err := Factorize(ab)
		if err != nil {
			return true
		}
		lhs, rhs := fab.Det(), fa.Det()*fb.Det()
		return almostEqual(lhs, rhs, 1e-6*(1+math.Abs(rhs)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLUSolveInto pins the in-place solve against Solve.
func TestLUSolveInto(t *testing.T) {
	r := rng.New(47)
	a := randomMatrix(r, 7)
	for i := 0; i < 7; i++ {
		a.Set(i, i, a.At(i, i)+7)
	}
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 7)
	for i := range b {
		b[i] = r.NormScaled(0, 2)
	}
	want, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 7)
	if err := f.SolveInto(dst, b); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("SolveInto[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	if err := f.SolveInto(dst, b[:2]); !errors.Is(err, ErrShape) {
		t.Fatalf("short rhs accepted: %v", err)
	}
}

// TestSolveIntoAllocs proves repeated solves against warm factors are
// allocation-free — the contract the kriging predict scratch relies on.
func TestSolveIntoAllocs(t *testing.T) {
	r := rng.New(48)
	spd := randomSPD(r, 12)
	c, err := FactorizeCholesky(spd)
	if err != nil {
		t.Fatal(err)
	}
	gen := randomMatrix(r, 12)
	for i := 0; i < 12; i++ {
		gen.Set(i, i, gen.At(i, i)+12)
	}
	f, err := Factorize(gen)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 12)
	for i := range b {
		b[i] = r.Float64()
	}
	dst := make([]float64, 12)
	if got := testing.AllocsPerRun(200, func() {
		if err := c.SolveInto(dst, b); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("Cholesky.SolveInto allocates %.1f per run, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := f.SolveInto(dst, b); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("LU.SolveInto allocates %.1f per run, want 0", got)
	}
}

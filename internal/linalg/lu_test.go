package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestLUSolveKnown(t *testing.T) {
	a := fromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := solveLU(a, []float64{8, -11, -3})
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
		x, err := solveLU(a, b)
		if err != nil {
			// Random Gaussian matrices are almost never singular, but a
			// singular draw is a legal outcome, not a test failure.
			continue
		}
		ax := mulVec(a, x)
		for i := range b {
			if !almostEqual(ax[i], b[i], 1e-7*(1+math.Abs(b[i]))) {
				t.Fatalf("trial %d: residual %v at %d", trial, ax[i]-b[i], i)
			}
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := fromRows([][]float64{
		{1, 2},
		{2, 4},
	})
	if _, err := factorize(a); !errors.Is(err, ErrSingular) {
		t.Errorf("singular matrix: err = %v, want ErrSingular", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := factorize(newMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("non-square: err = %v, want ErrShape", err)
	}
}

func TestLUSolveWrongRHS(t *testing.T) {
	f, err := factorize(identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solve(f, []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Errorf("short rhs: err = %v, want ErrShape", err)
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
		x, err := solveLU(a, b)
		if err != nil {
			return true // singular draw is acceptable
		}
		ax := mulVec(a, x)
		// Residual relative to the conditioning proxy.
		var res float64
		for i := range b {
			res = math.Max(res, math.Abs(ax[i]-b[i]))
		}
		return res <= 1e-6*(maxAbs(a.Data)*maxAbs(x)+maxAbs(b)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLUSolveInto pins the in-place solve against a fresh-buffer solve.
func TestLUSolveInto(t *testing.T) {
	r := rng.New(47)
	a := randomMatrix(r, 7)
	for i := 0; i < 7; i++ {
		a.Set(i, i, a.At(i, i)+7)
	}
	f, err := factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 7)
	for i := range b {
		b[i] = r.NormScaled(0, 2)
	}
	want, err := solve(f, b)
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

// TestFactorizeReusesBuffers refactors one LU and one Cholesky value
// through systems of shrinking, growing and failing shape: every solve
// must match a fresh factor of the same matrix bit for bit, and a failed
// factorisation must leave the value refusing solves rather than
// answering from the previous system.
func TestFactorizeReusesBuffers(t *testing.T) {
	r := rng.New(49)
	var f LU
	var c Cholesky
	for _, n := range []int{9, 3, 12, 5} {
		spd := randomSPD(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormScaled(0, 2)
		}
		if err := Factorize(&f, spd); err != nil {
			t.Fatal(err)
		}
		if err := FactorizeCholesky(&c, spd); err != nil {
			t.Fatal(err)
		}
		freshLU, err := factorize(spd)
		if err != nil {
			t.Fatal(err)
		}
		freshChol, err := factorizeCholesky(spd)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name          string
			reused, fresh interface{ SolveInto(dst, b []float64) error }
		}{{"lu", &f, freshLU}, {"cholesky", &c, freshChol}} {
			got, err := solve(tc.reused, b)
			if err != nil {
				t.Fatal(err)
			}
			want, err := solve(tc.fresh, b)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s n=%d: reused factor x[%d] = %v, fresh %v", tc.name, n, i, got[i], want[i])
				}
			}
		}
	}
	singular := fromRows([][]float64{{1, 2}, {2, 4}})
	if err := Factorize(&f, singular); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular LU: err = %v, want ErrSingular", err)
	}
	if err := FactorizeCholesky(&c, singular); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular Cholesky: err = %v, want ErrSingular", err)
	}
	for name, fac := range map[string]interface{ SolveInto(dst, b []float64) error }{"lu": &f, "cholesky": &c} {
		if _, err := solve(fac, []float64{1, 1}); !errors.Is(err, ErrShape) {
			t.Errorf("%s: solve after a failed factorisation: err = %v, want ErrShape", name, err)
		}
	}
}

// TestSolveIntoAllocs proves repeated solves against warm factors, and
// refactoring into them, are allocation-free — the contract the kriging
// predict scratch relies on.
func TestSolveIntoAllocs(t *testing.T) {
	r := rng.New(48)
	spd := randomSPD(r, 12)
	c, err := factorizeCholesky(spd)
	if err != nil {
		t.Fatal(err)
	}
	gen := randomMatrix(r, 12)
	for i := 0; i < 12; i++ {
		gen.Set(i, i, gen.At(i, i)+12)
	}
	f, err := factorize(gen)
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
	if got := testing.AllocsPerRun(200, func() {
		if err := FactorizeCholesky(c, spd); err != nil {
			t.Fatal(err)
		}
		if err := Factorize(f, gen); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("refactoring into warm factors allocates %.1f per run, want 0", got)
	}
}

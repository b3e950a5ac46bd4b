package linalg

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// borderSPD slices a random (n+1)×(n+1) SPD matrix into its leading n×n
// block plus the border row and corner used to rebuild it incrementally.
func borderSPD(r *rng.Stream, n int) (full, lead *Matrix, border []float64, corner float64) {
	full = randomSPD(r, n+1)
	lead = NewMatrix(n, n)
	for i := 0; i < n; i++ {
		copy(lead.Data[i*n:(i+1)*n], full.Data[i*(n+1):i*(n+1)+n])
	}
	border = make([]float64, n)
	for i := 0; i < n; i++ {
		border[i] = full.At(n, i)
	}
	return full, lead, border, full.At(n, n)
}

// TestCholeskyAppendRowMatchesFull grows a factor by one bordered row and
// demands the result solve the full system as accurately as a
// from-scratch factorisation.
func TestCholeskyAppendRowMatchesFull(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(20)
		full, lead, border, corner := borderSPD(r, n)
		base, err := FactorizeCholesky(lead)
		if err != nil {
			t.Fatalf("trial %d: leading block not PD: %v", trial, err)
		}
		ext, err := base.AppendRow(border, corner)
		if err != nil {
			t.Fatalf("trial %d: AppendRow: %v", trial, err)
		}
		ref, err := FactorizeCholesky(full)
		if err != nil {
			t.Fatalf("trial %d: full factorisation: %v", trial, err)
		}
		b := make([]float64, n+1)
		for i := range b {
			b[i] = r.NormScaled(0, 1)
		}
		xe, err := ext.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		xr, err := ref.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xr {
			if math.Abs(xe[i]-xr[i]) > 1e-9*(1+math.Abs(xr[i])) {
				t.Fatalf("trial %d: x[%d] = %v (extended) vs %v (full)", trial, i, xe[i], xr[i])
			}
		}
		// The base factor must be untouched by the extension.
		if base.Size() != n || ext.Size() != n+1 {
			t.Fatalf("trial %d: sizes %d/%d", trial, base.Size(), ext.Size())
		}
	}
}

// TestCholeskyAppendRowRejectsUnsafe checks the cancellation health gate:
// bordering with (nearly) the last existing row makes the extension
// singular, which must be reported rather than absorbed.
func TestCholeskyAppendRowRejectsUnsafe(t *testing.T) {
	r := rng.New(5)
	a := randomSPD(r, 6)
	c, err := FactorizeCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	row := a.Row(5)
	if _, err := c.AppendRow(row, a.At(5, 5)); !errors.Is(err, ErrSingular) {
		t.Fatalf("duplicated border accepted: %v", err)
	}
	if _, err := c.AppendRow(row[:3], 1); !errors.Is(err, ErrShape) {
		t.Fatalf("short border accepted: %v", err)
	}
}

// TestCholeskySolveInto pins the in-place solve against Solve, including
// the documented dst==b aliasing mode.
func TestCholeskySolveInto(t *testing.T) {
	r := rng.New(45)
	a := randomSPD(r, 9)
	c, err := FactorizeCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 9)
	for i := range b {
		b[i] = r.NormScaled(0, 2)
	}
	want, err := c.Solve(b)
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

// borderGeneral slices a random well-conditioned (n+1)×(n+1) matrix into
// its leading block and asymmetric borders.
func borderGeneral(r *rng.Stream, n int) (full, lead *Matrix, col, row []float64, corner float64) {
	full = randomMatrix(r, n+1)
	for i := 0; i <= n; i++ {
		full.Set(i, i, full.At(i, i)+float64(n)) // diagonal dominance keeps it comfortably regular
	}
	lead = NewMatrix(n, n)
	col = make([]float64, n)
	row = make([]float64, n)
	for i := 0; i < n; i++ {
		copy(lead.Data[i*n:(i+1)*n], full.Data[i*(n+1):i*(n+1)+n])
		col[i] = full.At(i, n)
		row[i] = full.At(n, i)
	}
	return full, lead, col, row, full.At(n, n)
}

// TestLUExtendMatchesFactorize grows pivoted-LU factors by one bordered
// row/column and compares solves and determinants against refactorising.
func TestLUExtendMatchesFactorize(t *testing.T) {
	r := rng.New(46)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(20)
		full, lead, col, row, corner := borderGeneral(r, n)
		base, err := Factorize(lead)
		if err != nil {
			t.Fatal(err)
		}
		ext, err := base.Extend(col, row, corner)
		if err != nil {
			t.Fatalf("trial %d: Extend: %v", trial, err)
		}
		ref, err := Factorize(full)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n+1)
		for i := range b {
			b[i] = r.NormScaled(0, 1)
		}
		xe, err := ext.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		xr, err := ref.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xr {
			if math.Abs(xe[i]-xr[i]) > 1e-9*(1+math.Abs(xr[i])) {
				t.Fatalf("trial %d: x[%d] = %v (extended) vs %v (full)", trial, i, xe[i], xr[i])
			}
		}
		if de, dr := ext.Det(), ref.Det(); math.Abs(de-dr) > 1e-8*(1+math.Abs(dr)) {
			t.Fatalf("trial %d: det %v (extended) vs %v (full)", trial, de, dr)
		}
		if base.Size() != n || ext.Size() != n+1 {
			t.Fatalf("trial %d: sizes %d/%d", trial, base.Size(), ext.Size())
		}
	}
}

// TestLUExtendRejectsSingular checks the corner-pivot health gate: a
// border that makes the matrix singular (last row in the span of the
// others) must be rejected, steering the caller to a full refactor.
func TestLUExtendRejectsSingular(t *testing.T) {
	a, _ := FromRows([][]float64{{2, 1}, {1, 3}})
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	// Border equal to row 0 of A with matching corner: rank deficient.
	if _, err := f.Extend([]float64{2, 1}, []float64{2, 1}, 2); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular border accepted: %v", err)
	}
	if _, err := f.Extend([]float64{1}, []float64{1, 2}, 0); !errors.Is(err, ErrShape) {
		t.Fatalf("short border accepted: %v", err)
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

// BenchmarkIncrementalFactor measures the support-growth round the
// kriging cache leans on: growing a factored n-point system to n+1 by a
// bordered update versus refactorising the (n+1)-point system from
// scratch, for both factor types. The ≥5× acceptance target of the
// zero-allocation fast-path PR is read off the extend/refactor ratio at
// n=100.
func BenchmarkIncrementalFactor(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		r := rng.New(uint64(n))
		fullSPD, leadSPD, borderS, cornerS := borderSPD(r, n)
		baseChol, err := FactorizeCholesky(leadSPD)
		if err != nil {
			b.Fatal(err)
		}
		fullG, leadG, colG, rowG, cornerG := borderGeneral(r, n)
		baseLU, err := Factorize(leadG)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("cholesky/extend/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseChol.AppendRow(borderS, cornerS); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("cholesky/refactor/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := FactorizeCholesky(fullSPD); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("lu/extend/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseLU.Extend(colG, rowG, cornerG); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("lu/refactor/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Factorize(fullG); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCholeskyAppendRowRejectsNonFinite is the regression test for the
// fail-open health guard: a non-finite border (NaN distances from
// duplicate support points pushed through a degenerate anisotropy
// transform) made d2 = diag - v·v NaN, every guard comparison false, and
// AppendRow returned a sqrt(NaN)-poisoned factor as success. It must
// report ErrSingular so callers refactorise instead.
func TestCholeskyAppendRowRejectsNonFinite(t *testing.T) {
	r := rng.New(92)
	base, err := FactorizeCholesky(randomSPD(r, 6))
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	cases := []struct {
		name string
		row  []float64
		diag float64
	}{
		{"nan-row", []float64{1, nan, 0, 2, 1, 0}, 50},
		{"nan-diag", []float64{1, 0, 0, 2, 1, 0}, nan},
		{"inf-row", []float64{1, math.Inf(1), 0, 2, 1, 0}, 50},
		{"inf-diag", []float64{1, 0, 0, 2, 1, 0}, math.Inf(1)},
	}
	for _, c := range cases {
		ext, err := base.AppendRow(c.row, c.diag)
		if !errors.Is(err, ErrSingular) {
			t.Errorf("%s: err = %v, want ErrSingular", c.name, err)
		}
		if ext != nil {
			t.Errorf("%s: got a factor alongside the error", c.name)
		}
	}
}

// TestLUExtendRejectsNonFinite: the analogous fail-closed check for the
// LU border extension's corner pivot.
func TestLUExtendRejectsNonFinite(t *testing.T) {
	r := rng.New(93)
	gen := randomMatrix(r, 6)
	for i := 0; i < 6; i++ {
		gen.Set(i, i, gen.At(i, i)+6)
	}
	f, err := Factorize(gen)
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	col := []float64{1, 0, 2, 0, 1, 0}
	row := []float64{0, 1, 0, 2, 0, 1}
	cases := []struct {
		name   string
		col    []float64
		row    []float64
		corner float64
	}{
		{"nan-corner", col, row, nan},
		{"nan-col", []float64{1, nan, 2, 0, 1, 0}, row, 9},
		{"nan-row", col, []float64{0, 1, nan, 2, 0, 1}, 9},
		{"inf-corner", col, row, math.Inf(-1)},
	}
	for _, c := range cases {
		ext, err := f.Extend(c.col, c.row, c.corner)
		if !errors.Is(err, ErrSingular) {
			t.Errorf("%s: err = %v, want ErrSingular", c.name, err)
		}
		if ext != nil {
			t.Errorf("%s: got a factor alongside the error", c.name)
		}
	}
}

package linalg

import (
	"errors"
	"math"
	"testing"

	"repro/internal/raceflag"
	"repro/internal/rng"
)

// skipUnderRace skips allocation gates when race instrumentation (which
// allocates on its own) is compiled in; scripts/check_allocs.sh runs
// them without -race.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("allocation gates are measured without -race (see scripts/check_allocs.sh)")
	}
}

// TestSolveBatchMatchesSolveInto is the bit-identity contract of the
// blocked solves: every column of a SolveBatchInto result must equal the
// standalone SolveInto solution of that column EXACTLY (not to a
// tolerance) for both factor types, across block-remainder shapes.
func TestSolveBatchMatchesSolveInto(t *testing.T) {
	r := rng.New(83)
	for _, n := range []int{1, 2, 3, 5, 12, 33} {
		for _, k := range []int{0, 1, 2, 3, 4, 5, 7, 8, 64} {
			a := randomSPD(r, n)
			b := make([]float64, n*k)
			for i := range b {
				b[i] = r.NormScaled(0, 3)
			}

			chol, err := factorizeCholesky(a)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			got := make([]float64, n*k)
			if err := chol.SolveBatchInto(got, b, k); err != nil {
				t.Fatalf("n=%d k=%d: cholesky batch: %v", n, k, err)
			}
			want := make([]float64, n)
			for j := 0; j < k; j++ {
				if err := chol.SolveInto(want, b[j*n:(j+1)*n]); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if got[j*n+i] != want[i] {
						t.Fatalf("cholesky n=%d k=%d col %d row %d: batch %v != sequential %v",
							n, k, j, i, got[j*n+i], want[i])
					}
				}
			}

			lu, err := factorize(a)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if err := lu.SolveBatchInto(got, b, k); err != nil {
				t.Fatalf("n=%d k=%d: lu batch: %v", n, k, err)
			}
			for j := 0; j < k; j++ {
				if err := lu.SolveInto(want, b[j*n:(j+1)*n]); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if got[j*n+i] != want[i] {
						t.Fatalf("lu n=%d k=%d col %d row %d: batch %v != sequential %v",
							n, k, j, i, got[j*n+i], want[i])
					}
				}
			}
		}
	}
}

// TestSolveBatchAliasedCholesky pins the documented aliasing contract:
// the Cholesky batch solve may run in place over the RHS block.
func TestSolveBatchAliasedCholesky(t *testing.T) {
	r := rng.New(84)
	const n, k = 9, 6
	a := randomSPD(r, n)
	chol, err := factorizeCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n*k)
	for i := range b {
		b[i] = r.NormScaled(0, 1)
	}
	want := make([]float64, n*k)
	if err := chol.SolveBatchInto(want, b, k); err != nil {
		t.Fatal(err)
	}
	if err := chol.SolveBatchInto(b, b, k); err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if b[i] != want[i] {
			t.Fatalf("in-place batch solve diverged at %d: %v vs %v", i, b[i], want[i])
		}
	}
}

// TestSolveBatchShapeErrors demands ErrShape (never a panic, never a
// partial write) on inconsistent block geometry.
func TestSolveBatchShapeErrors(t *testing.T) {
	r := rng.New(85)
	const n = 7
	a := randomSPD(r, n)
	chol, err := factorizeCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, n*4)
	cases := []struct {
		dst, b []float64
		k      int
	}{
		{buf, buf, 3},         // length n*4 declared as k=3
		{buf[:n*3], buf, 4},   // short dst
		{buf, buf[:n*3], 4},   // short rhs
		{buf, buf, -1},        // negative k
		{buf[:0], buf[:0], 1}, // empty block, k=1
	}
	for i, c := range cases {
		if err := chol.SolveBatchInto(c.dst, c.b, c.k); !errors.Is(err, ErrShape) {
			t.Fatalf("case %d: cholesky err = %v, want ErrShape", i, err)
		}
		if err := lu.SolveBatchInto(c.dst, c.b, c.k); !errors.Is(err, ErrShape) {
			t.Fatalf("case %d: lu err = %v, want ErrShape", i, err)
		}
	}
	// k = 0 with empty slices is a valid degenerate block.
	if err := chol.SolveBatchInto(nil, nil, 0); err != nil {
		t.Fatalf("k=0: %v", err)
	}
}

// TestAllocsSolveBatch gates the steady-state batch solves at zero
// allocations per op (picked up by scripts/check_allocs.sh).
func TestAllocsSolveBatch(t *testing.T) {
	skipUnderRace(t)
	r := rng.New(86)
	const n, k = 12, 8
	a := randomSPD(r, n)
	chol, err := factorizeCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n*k)
	for i := range b {
		b[i] = r.NormScaled(0, 1)
	}
	dst := make([]float64, n*k)
	if got := testing.AllocsPerRun(200, func() {
		if err := chol.SolveBatchInto(dst, b, k); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("Cholesky.SolveBatchInto allocated %.1f/op, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := lu.SolveBatchInto(dst, b, k); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("LU.SolveBatchInto allocated %.1f/op, want 0", got)
	}
}

// TestKernelsMatchSerialReference pins the unrolled kernels against the
// obvious serial loops to within reassociation tolerance, including the
// guarantee that the 4-column kernels replicate the single-column
// kernels bit for bit.
func TestKernelsMatchSerialReference(t *testing.T) {
	r := rng.New(87)
	for _, n := range []int{0, 1, 2, 3, 4, 7, 8, 15, 64, 101} {
		a := make([]float64, n)
		xs := make([][]float64, 4)
		for i := range a {
			a[i] = r.NormScaled(0, 2)
		}
		for c := range xs {
			xs[c] = make([]float64, n)
			for i := range xs[c] {
				xs[c][i] = r.NormScaled(0, 2)
			}
		}
		var serial float64
		for i := 0; i < n; i++ {
			serial += a[i] * xs[0][i]
		}
		got := dotUnrolled(a, xs[0])
		if math.Abs(got-serial) > 1e-12*(1+math.Abs(serial)) {
			t.Fatalf("n=%d: dotUnrolled %v vs serial %v", n, got, serial)
		}
		r0, r1, r2, r3 := dotUnrolled4(a, xs[0], xs[1], xs[2], xs[3])
		for c, rc := range []float64{r0, r1, r2, r3} {
			if want := dotUnrolled(a, xs[c]); rc != want {
				t.Fatalf("n=%d col %d: dotUnrolled4 %v != dotUnrolled %v", n, c, rc, want)
			}
		}
		if n == 0 {
			continue
		}
		// Strided access against a fat backing array.
		stride := n + 3
		d := make([]float64, 2+n*stride)
		for i := range d {
			d[i] = r.NormScaled(0, 2)
		}
		serial = 0
		for i := 0; i < n; i++ {
			serial += d[2+i*stride] * xs[0][i]
		}
		got = strideDot(d, 2, stride, xs[0])
		if math.Abs(got-serial) > 1e-12*(1+math.Abs(serial)) {
			t.Fatalf("n=%d: strideDot %v vs serial %v", n, got, serial)
		}
		s0, s1, s2, s3 := strideDot4(d, 2, stride, xs[0], xs[1], xs[2], xs[3])
		for c, sc := range []float64{s0, s1, s2, s3} {
			if want := strideDot(d, 2, stride, xs[c]); sc != want {
				t.Fatalf("n=%d col %d: strideDot4 %v != strideDot %v", n, c, sc, want)
			}
		}
	}
}

// TestDot4ColsMatchesGeneric pins the dot4cols entry point (the SSE2
// kernel on amd64, the portable kernel elsewhere) against
// dot4colsGeneric and the single-column dotUnrolled, bit for bit, across
// lengths spanning every unroll boundary, offset starts, strides wider
// than the column, and non-finite inputs.
func TestDot4ColsMatchesGeneric(t *testing.T) {
	r := rng.New(88)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 64, 100, 101} {
		for _, pad := range []int{0, 3} {
			for _, lo := range []int{0, 1, 5} {
				stride := n + lo + pad
				x := make([]float64, 4*stride)
				a := make([]float64, n)
				for i := range a {
					a[i] = r.NormScaled(0, 2)
				}
				for i := range x {
					x[i] = r.NormScaled(0, 2)
				}
				g0, g1, g2, g3 := dot4colsGeneric(a, x, stride, lo)
				k0, k1, k2, k3 := dot4cols(a, x, stride, lo)
				for c, pair := range [][2]float64{{k0, g0}, {k1, g1}, {k2, g2}, {k3, g3}} {
					if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
						t.Fatalf("n=%d lo=%d stride=%d col %d: dot4cols %v != generic %v",
							n, lo, stride, c, pair[0], pair[1])
					}
					want := dotUnrolled(a, x[c*stride+lo:][:n])
					if math.Float64bits(pair[0]) != math.Float64bits(want) {
						t.Fatalf("n=%d lo=%d stride=%d col %d: dot4cols %v != dotUnrolled %v",
							n, lo, stride, c, pair[0], want)
					}
				}
			}
		}
	}
	// Non-finite inputs must poison both paths the same way. NaN payload
	// bits are NOT compared: when two NaNs meet in an add, which payload
	// survives depends on operand order, and the compiler is free to
	// emit either order for the generic kernel (it differs between
	// instrumented and regular builds). Any NaN ends a kriging predict
	// in ErrDegenerate, so payload identity is unobservable anyway.
	a := []float64{1, math.NaN(), math.Inf(1), 2, -3}
	x := make([]float64, 4*len(a))
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	x[2] = math.Inf(-1)
	g0, g1, g2, g3 := dot4colsGeneric(a, x, len(a), 0)
	k0, k1, k2, k3 := dot4cols(a, x, len(a), 0)
	for c, pair := range [][2]float64{{k0, g0}, {k1, g1}, {k2, g2}, {k3, g3}} {
		same := math.Float64bits(pair[0]) == math.Float64bits(pair[1]) ||
			(math.IsNaN(pair[0]) && math.IsNaN(pair[1]))
		if !same {
			t.Fatalf("non-finite col %d: dot4cols %v != generic %v", c, pair[0], pair[1])
		}
	}
}

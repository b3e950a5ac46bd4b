package linalg

import (
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
)

// FuzzSolveBatch drives the blocked multi-RHS solves with adversarial
// geometry: arbitrary n/k, diagonals scaled toward (and past)
// singularity, non-finite RHS entries, and deliberately mismatched k
// declarations. Invariants pinned regardless of input:
//
//   - no panic, ever (mismatched shapes must surface as ErrShape);
//   - each batch column is bit-identical to the sequential SolveInto
//     solution of the same column;
//   - for comfortably-conditioned systems with finite right-hand sides
//     the outputs are finite.
func FuzzSolveBatch(f *testing.F) {
	f.Add(uint64(1), 6, 3, 1.0, false)
	f.Add(uint64(2), 1, 1, 1e-12, false)
	f.Add(uint64(3), 17, 64, 1e-300, true)
	f.Add(uint64(4), 24, 5, 0.0, false)
	f.Add(uint64(5), 3, 8, -1.0, true)
	f.Fuzz(func(t *testing.T, seed uint64, n, k int, diagScale float64, poisonRHS bool) {
		if n < 0 {
			n = -n
		}
		n = n%24 + 1
		if k < 0 {
			k = -k
		}
		k %= 67
		r := rng.New(seed)
		a := randomSPD(r, n)
		if math.IsNaN(diagScale) {
			diagScale = 1
		}
		// Drag the trailing diagonal toward singularity (or negate it so
		// factorisation itself must reject the matrix).
		a.Set(n-1, n-1, a.At(n-1, n-1)*diagScale)
		b := make([]float64, n*k)
		for i := range b {
			b[i] = r.NormScaled(0, 10)
		}
		if poisonRHS && len(b) > 0 {
			b[r.Intn(len(b))] = math.Inf(1)
			b[r.Intn(len(b))] = math.NaN()
		}
		dst := make([]float64, n*k)
		want := make([]float64, n)

		check := func(name string, batch func(dst, b []float64, k int) error, solve func(dst, b []float64) error) {
			if err := batch(dst, b, k); err != nil {
				t.Fatalf("%s: well-shaped batch rejected: %v", name, err)
			}
			healthy := true
			for j := 0; j < k; j++ {
				if err := solve(want, b[j*n:(j+1)*n]); err != nil {
					t.Fatalf("%s: sequential solve: %v", name, err)
				}
				for i := 0; i < n; i++ {
					got, ref := dst[j*n+i], want[i]
					if got != ref && !(math.IsNaN(got) && math.IsNaN(ref)) {
						t.Fatalf("%s col %d row %d: batch %v != sequential %v", name, j, i, got, ref)
					}
					if !isFinite(ref) {
						healthy = false
					}
				}
			}
			if !poisonRHS && healthy {
				for i := range dst {
					if !isFinite(dst[i]) {
						t.Fatalf("%s: non-finite output %v at %d from finite inputs", name, dst[i], i)
					}
				}
			}
			// Mismatched k must be an error, never a panic or partial write.
			if err := batch(dst, b, k+1); !errors.Is(err, ErrShape) {
				t.Fatalf("%s: k+1 err = %v, want ErrShape", name, err)
			}
			if k > 0 {
				if err := batch(dst[:n*(k-1)], b, k); !errors.Is(err, ErrShape) {
					t.Fatalf("%s: short dst err = %v, want ErrShape", name, err)
				}
			}
		}

		if chol, err := factorizeCholesky(a); err == nil {
			check("cholesky", chol.SolveBatchInto, chol.SolveInto)
		}
		if lu, err := factorize(a); err == nil {
			check("lu", lu.SolveBatchInto, lu.SolveInto)
		}
	})
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

package optim

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/space"
)

// bg is the request context of tests that never cancel.
var bg = context.Background()

// additiveNoiseOracle models the canonical word-length accuracy field:
// λ(w) = -Σ c_i·2^(-2·w_i), smooth and monotone in every variable.
func additiveNoiseOracle(coef []float64) Oracle {
	return OracleFunc(func(c space.Config) (float64, error) {
		var p float64
		for i, w := range c {
			p += coef[i] * math.Exp2(-2*float64(w))
		}
		return -p, nil
	})
}

func TestMinPlusOneConverges(t *testing.T) {
	oracle := additiveNoiseOracle([]float64{1, 1})
	res, err := MinPlusOne(bg, oracle, MinPlusOneOptions{
		LambdaMin: -1e-4,
		Bounds:    space.UniformBounds(2, 2, 16),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda < -1e-4 {
		t.Errorf("result λ = %v violates the constraint", res.Lambda)
	}
	// Per-variable minimum must be below or equal to the final result.
	for i := range res.WRes {
		if res.WMin[i] > res.WRes[i] {
			t.Errorf("wmin[%d] = %d > wres[%d] = %d", i, res.WMin[i], i, res.WRes[i])
		}
	}
	if res.Evaluations <= 0 {
		t.Error("no evaluations counted")
	}
}

func TestMinPlusOneMatchesExhaustiveCost(t *testing.T) {
	// On a separable monotone field the greedy min+1 solution should be
	// within a small margin of the exhaustive optimum's cost.
	oracle := additiveNoiseOracle([]float64{1, 4})
	opts := MinPlusOneOptions{
		LambdaMin: -1e-3,
		Bounds:    space.UniformBounds(2, 1, 12),
	}
	res, err := MinPlusOne(bg, oracle, opts)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Exhaustive(bg, oracle, ExhaustiveOptions{LambdaMin: opts.LambdaMin, Bounds: opts.Bounds})
	if err != nil {
		t.Fatal(err)
	}
	if TotalBits(res.WRes) > ex.Cost+2 {
		t.Errorf("greedy cost %v, exhaustive %v", TotalBits(res.WRes), ex.Cost)
	}
}

func TestMinPlusOneWMinIsMinimal(t *testing.T) {
	// wmin_i is the smallest value keeping the constraint with all other
	// variables at Nmax; verify against direct evaluation.
	oracle := additiveNoiseOracle([]float64{1, 2, 0.5})
	opts := MinPlusOneOptions{
		LambdaMin: -1e-3,
		Bounds:    space.UniformBounds(3, 1, 14),
	}
	res, err := MinPlusOne(bg, oracle, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		at := opts.Bounds.Corner(true).With(i, res.WMin[i])
		lam, _ := oracle.Evaluate(bg, at)
		if lam < opts.LambdaMin {
			t.Errorf("wmin[%d] = %d does not satisfy the constraint", i, res.WMin[i])
		}
		if res.WMin[i] > opts.Bounds.Lo[i] {
			below, _ := oracle.Evaluate(bg, at.With(i, res.WMin[i]-1))
			if below >= opts.LambdaMin {
				t.Errorf("wmin[%d] = %d is not minimal (wl-1 still passes)", i, res.WMin[i])
			}
		}
	}
}

func TestMinPlusOneInfeasible(t *testing.T) {
	oracle := OracleFunc(func(space.Config) (float64, error) { return -1, nil })
	_, err := MinPlusOne(bg, oracle, MinPlusOneOptions{
		LambdaMin: 0, // unreachable: λ is always -1
		Bounds:    space.UniformBounds(2, 1, 4),
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestMinPlusOnePropagatesOracleError(t *testing.T) {
	boom := errors.New("boom")
	oracle := OracleFunc(func(space.Config) (float64, error) { return 0, boom })
	if _, err := MinPlusOne(bg, oracle, MinPlusOneOptions{
		LambdaMin: -1, Bounds: space.UniformBounds(1, 1, 4),
	}); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestMinPlusOneZeroDim(t *testing.T) {
	if _, err := MinPlusOne(bg, additiveNoiseOracle(nil), MinPlusOneOptions{
		Bounds: space.Bounds{},
	}); err == nil {
		t.Error("zero-dimensional bounds accepted")
	}
}

func TestMinPlusOneInvalidBounds(t *testing.T) {
	if _, err := MinPlusOne(bg, additiveNoiseOracle([]float64{1}), MinPlusOneOptions{
		Bounds: space.Bounds{Lo: []int{5}, Hi: []int{2}},
	}); err == nil {
		t.Error("inverted bounds accepted")
	}
}

func TestNoiseBudgetConverges(t *testing.T) {
	// Quality decreases as indices grow: λ = 1 - Σ idx_i/100.
	oracle := OracleFunc(func(c space.Config) (float64, error) {
		var s float64
		for _, v := range c {
			s += float64(v) / 100
		}
		return 1 - s, nil
	})
	res, err := NoiseBudget(bg, oracle, NoiseBudgetOptions{
		LambdaMin: 0.9,
		Bounds:    space.UniformBounds(2, 0, 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda < 0.9 {
		t.Errorf("final λ = %v violates the constraint", res.Lambda)
	}
	// Σ idx should reach exactly 10 (λ = 1 - 10/100 = 0.9).
	total := 0
	for _, v := range res.E {
		total += v
	}
	if total != 10 {
		t.Errorf("total budget = %d, want 10", total)
	}
	if res.Steps != 10 {
		t.Errorf("steps = %d", res.Steps)
	}
}

func TestNoiseBudgetPrefersInsensitiveSource(t *testing.T) {
	// Source 1 is 10x less damaging; the budget should land there.
	oracle := OracleFunc(func(c space.Config) (float64, error) {
		return 1 - float64(c[0])*0.1 - float64(c[1])*0.01, nil
	})
	res, err := NoiseBudget(bg, oracle, NoiseBudgetOptions{
		LambdaMin: 0.95,
		Bounds:    space.UniformBounds(2, 0, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.E[1] <= res.E[0] {
		t.Errorf("budget %v should favour the insensitive source", res.E)
	}
}

func TestNoiseBudgetInfeasibleStart(t *testing.T) {
	oracle := OracleFunc(func(space.Config) (float64, error) { return 0.5, nil })
	_, err := NoiseBudget(bg, oracle, NoiseBudgetOptions{
		LambdaMin: 0.9,
		Bounds:    space.UniformBounds(2, 0, 5),
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestNoiseBudgetStopsAtBounds(t *testing.T) {
	// Quality never drops: the budget must stop at the Hi corner rather
	// than loop forever.
	oracle := OracleFunc(func(space.Config) (float64, error) { return 1, nil })
	res, err := NoiseBudget(bg, oracle, NoiseBudgetOptions{
		LambdaMin: 0.5,
		Bounds:    space.UniformBounds(2, 0, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.E[0] != 3 || res.E[1] != 3 {
		t.Errorf("budget %v should saturate at Hi", res.E)
	}
}

func TestExhaustiveFindsOptimum(t *testing.T) {
	oracle := additiveNoiseOracle([]float64{1, 1})
	res, err := Exhaustive(bg, oracle, ExhaustiveOptions{
		LambdaMin: -1e-2,
		Bounds:    space.UniformBounds(2, 1, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda < -1e-2 {
		t.Error("optimum violates constraint")
	}
	if res.Evaluations != 64 {
		t.Errorf("evaluations = %d, want 64", res.Evaluations)
	}
	// Verify optimality directly.
	opts := ExhaustiveOptions{LambdaMin: -1e-2, Bounds: space.UniformBounds(2, 1, 8)}
	enumerate(opts.Bounds, func(c space.Config) bool {
		lam, _ := oracle.Evaluate(bg, c)
		if lam >= opts.LambdaMin && TotalBits(c) < res.Cost {
			t.Errorf("found cheaper feasible %v (cost %v < %v)", c, TotalBits(c), res.Cost)
			return false
		}
		return true
	})
}

func TestExhaustiveNoFeasible(t *testing.T) {
	oracle := OracleFunc(func(space.Config) (float64, error) { return -1, nil })
	if _, err := Exhaustive(bg, oracle, ExhaustiveOptions{
		LambdaMin: 0,
		Bounds:    space.UniformBounds(2, 1, 3),
	}); err == nil {
		t.Error("no-feasible search did not error")
	}
}

func TestExhaustiveSpaceTooLarge(t *testing.T) {
	if _, err := Exhaustive(bg, additiveNoiseOracle(make([]float64, 23)), ExhaustiveOptions{
		Bounds: space.UniformBounds(23, 2, 14),
	}); err == nil {
		t.Error("23-dimensional enumeration accepted")
	}
}

func TestExhaustiveCustomCost(t *testing.T) {
	// With a cost that prefers variable 0 large, the optimum changes.
	oracle := OracleFunc(func(space.Config) (float64, error) { return 1, nil })
	res, err := Exhaustive(bg, oracle, ExhaustiveOptions{
		LambdaMin: 0,
		Bounds:    space.UniformBounds(1, 1, 5),
		Cost:      func(c space.Config) float64 { return -float64(c[0]) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best[0] != 5 {
		t.Errorf("custom cost optimum = %v", res.Best)
	}
}

func TestTotalBits(t *testing.T) {
	if TotalBits(space.Config{3, 4, 5}) != 12 {
		t.Error("TotalBits wrong")
	}
}

func TestPropertyMinPlusOneFeasibleAndMinimalish(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nv := 1 + r.Intn(4)
		coef := make([]float64, nv)
		for i := range coef {
			coef[i] = 0.5 + 4*r.Float64()
		}
		oracle := additiveNoiseOracle(coef)
		lambdaMin := -math.Exp2(-2 * (4 + 6*r.Float64()))
		opts := MinPlusOneOptions{LambdaMin: lambdaMin, Bounds: space.UniformBounds(nv, 1, 16)}
		res, err := MinPlusOne(bg, oracle, opts)
		if err != nil {
			return errors.Is(err, ErrInfeasible)
		}
		if res.Lambda < lambdaMin {
			return false
		}
		// Feasibility re-check against the oracle.
		lam, _ := oracle.Evaluate(bg, res.WRes)
		return lam >= lambdaMin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyBudgetRespectsConstraint(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nv := 1 + r.Intn(4)
		sens := make([]float64, nv)
		for i := range sens {
			sens[i] = 0.001 + 0.05*r.Float64()
		}
		oracle := OracleFunc(func(c space.Config) (float64, error) {
			q := 1.0
			for i, v := range c {
				q -= sens[i] * float64(v)
			}
			return q, nil
		})
		lambdaMin := 0.7 + 0.25*r.Float64()
		res, err := NoiseBudget(bg, oracle, NoiseBudgetOptions{
			LambdaMin: lambdaMin,
			Bounds:    space.UniformBounds(nv, 0, 12),
		})
		if err != nil {
			return errors.Is(err, ErrInfeasible)
		}
		return res.Lambda >= lambdaMin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

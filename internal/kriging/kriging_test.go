package kriging

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/variogram"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// grid2D builds a small 2-D lattice sample of the field fn.
func grid2D(n int, fn func(x, y float64) float64) (xs [][]float64, ys []float64) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			xs = append(xs, []float64{float64(i), float64(j)})
			ys = append(ys, fn(float64(i), float64(j)))
		}
	}
	return xs, ys
}

func TestOrdinaryNoSupport(t *testing.T) {
	o := &Ordinary{}
	if _, err := o.Predict(nil, nil, []float64{0}); !errors.Is(err, ErrNoSupport) {
		t.Errorf("err = %v, want ErrNoSupport", err)
	}
}

func TestOrdinaryMismatchedInput(t *testing.T) {
	o := &Ordinary{}
	if _, err := o.Predict([][]float64{{0}, {1}}, []float64{1}, []float64{0}); err == nil {
		t.Error("mismatched coords/values accepted")
	}
}

func TestOrdinarySinglePoint(t *testing.T) {
	o := &Ordinary{}
	got, err := o.Predict([][]float64{{3, 4}}, []float64{7.5}, []float64{0, 0})
	if err != nil || got != 7.5 {
		t.Errorf("single support: got %v, err %v", got, err)
	}
}

func TestOrdinaryExactAtSupports(t *testing.T) {
	xs, ys := grid2D(3, func(x, y float64) float64 { return 2*x - 3*y + 1 })
	o := &Ordinary{}
	for i := range xs {
		got, err := o.Predict(xs, ys, xs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, ys[i], 1e-6*(1+math.Abs(ys[i]))) {
			t.Errorf("prediction at support %v = %v, want %v", xs[i], got, ys[i])
		}
	}
}

func TestOrdinaryConstantField(t *testing.T) {
	xs, ys := grid2D(3, func(x, y float64) float64 { return 4.25 })
	o := &Ordinary{}
	got, err := o.Predict(xs, ys, []float64{0.7, 1.3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 4.25, 1e-9) {
		t.Errorf("constant field interpolation = %v", got)
	}
}

func TestOrdinary1DLinearInterior(t *testing.T) {
	// A linear 1-D field sampled on both sides of the query must be
	// reproduced closely in the interior.
	xs := [][]float64{{0}, {1}, {3}, {4}}
	ys := []float64{0, 2, 6, 8} // y = 2x
	o := &Ordinary{}
	got, err := o.Predict(xs, ys, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 4, 0.2) {
		t.Errorf("interior prediction = %v, want ~4", got)
	}
}

// ordinaryWeights solves the ordinary-kriging system of o for the query
// x and returns the weights μ_k followed by the Lagrange multiplier.
func ordinaryWeights(o *Ordinary, xs [][]float64, ys []float64, x []float64) ([]float64, error) {
	n := len(xs)
	sys, err := o.system(new(predictScratch), xs, ys)
	if err != nil {
		return nil, err
	}
	rhs := make([]float64, n+1)
	for k := 0; k < n; k++ {
		rhs[k] = sys.model.Gamma(o.dist()(x, xs[k]))
	}
	rhs[n] = 1
	out := make([]float64, n+1)
	if err := sys.solveBatchInto(out, rhs, 1); err != nil {
		return nil, err
	}
	return out, nil
}

func TestOrdinaryWeightsSumToOne(t *testing.T) {
	// The unbiasedness constraint of Eq. 6: Σ μ_k = 1.
	xs, ys := grid2D(3, func(x, y float64) float64 { return x*x + y })
	o := &Ordinary{}
	w, err := ordinaryWeights(o, xs, ys, []float64{1.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range w[:len(w)-1] { // last entry is the Lagrange multiplier
		sum += v
	}
	if !almostEqual(sum, 1, 1e-9) {
		t.Errorf("Σ μ = %v, want 1", sum)
	}
}

func TestOrdinaryVarianceNonNegativeAndZeroAtSupport(t *testing.T) {
	xs, ys := grid2D(3, func(x, y float64) float64 { return 3*x + y })
	o := &Ordinary{}
	_, v, err := o.PredictVar(xs, ys, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if v < 0 {
		t.Errorf("kriging variance %v < 0", v)
	}
	_, vAt, err := o.PredictVar(xs, ys, xs[4])
	if err != nil {
		t.Fatal(err)
	}
	if vAt > 1e-6 {
		t.Errorf("variance at a support = %v, want ~0", vAt)
	}
}

func TestOrdinaryFixedModel(t *testing.T) {
	xs := [][]float64{{0}, {2}}
	ys := []float64{0, 4}
	o := &Ordinary{Model: &variogram.LinearModel{Slope: 1}}
	got, err := o.Predict(xs, ys, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric supports with any symmetric model give the average.
	if !almostEqual(got, 2, 1e-9) {
		t.Errorf("midpoint prediction = %v, want 2", got)
	}
}

func TestOrdinaryDuplicateSupports(t *testing.T) {
	// Duplicated support coordinates must not produce a singular system
	// (the diagonal jitter handles them).
	xs := [][]float64{{0}, {0}, {1}}
	ys := []float64{1, 1, 3}
	o := &Ordinary{}
	got, err := o.Predict(xs, ys, []float64{0.5})
	if err != nil {
		t.Fatalf("duplicate supports: %v", err)
	}
	if got < 1-0.5 || got > 3+0.5 {
		t.Errorf("prediction %v far outside data range", got)
	}
}

func TestOrdinaryPowerBetaExtrapolation(t *testing.T) {
	// With β→2 the power model extends a linear 1-D trend when
	// extrapolating one step beyond the support (the design rationale
	// for the PowerBeta option).
	xs := [][]float64{{0}, {1}, {2}}
	ys := []float64{0, 2, 4}
	beta2 := &Ordinary{PowerBeta: 1.99}
	got, err := beta2.Predict(xs, ys, []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-6) > 0.5 {
		t.Errorf("β≈2 extrapolation = %v, want ~6", got)
	}
	beta1 := &Ordinary{PowerBeta: 1.01}
	flat, err := beta1.Predict(xs, ys, []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if flat > got+1e-9 {
		t.Errorf("β≈1 extrapolation (%v) should be flatter than β≈2 (%v)", flat, got)
	}
}

func TestSimpleKrigingBasics(t *testing.T) {
	xs, ys := grid2D(3, func(x, y float64) float64 { return x + y })
	s := &Simple{}
	for i := range xs {
		got, err := s.Predict(xs, ys, xs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, ys[i], 0.05*(1+math.Abs(ys[i]))) {
			t.Errorf("simple kriging at support %v = %v, want %v", xs[i], got, ys[i])
		}
	}
}

func TestSimpleKrigingKnownMean(t *testing.T) {
	s := &Simple{Mean: 10, KnownMean: true}
	// A single far support: prediction should move toward the mean...
	got, err := s.Predict([][]float64{{0}}, []float64{0}, []float64{100})
	if err != nil {
		t.Fatal(err)
	}
	_ = got // single support returns the value itself by contract
	// Constant field at the mean.
	xs, ys := grid2D(2, func(x, y float64) float64 { return 10 })
	got, err = s.Predict(xs, ys, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 10, 1e-9) {
		t.Errorf("constant field = %v", got)
	}
}

func TestSimpleNoSupport(t *testing.T) {
	s := &Simple{}
	if _, err := s.Predict(nil, nil, []float64{0}); !errors.Is(err, ErrNoSupport) {
		t.Error("no support accepted")
	}
}

func TestIDW(t *testing.T) {
	w := &IDW{}
	xs := [][]float64{{0}, {2}}
	ys := []float64{0, 4}
	got, err := w.Predict(xs, ys, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 2, 1e-9) {
		t.Errorf("IDW midpoint = %v", got)
	}
	// Exact hit returns the sample.
	got, err = w.Predict(xs, ys, []float64{2})
	if err != nil || got != 4 {
		t.Errorf("IDW exact hit = %v, err %v", got, err)
	}
	if _, err := w.Predict(nil, nil, []float64{0}); !errors.Is(err, ErrNoSupport) {
		t.Error("IDW accepted empty support")
	}
}

func TestIDWWeighting(t *testing.T) {
	// The closer support must dominate.
	w := &IDW{}
	xs := [][]float64{{0}, {10}}
	ys := []float64{0, 100}
	got, err := w.Predict(xs, ys, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if got > 20 {
		t.Errorf("IDW at x=1 = %v, should be dominated by the near support", got)
	}
}

func TestNearest(t *testing.T) {
	nn := &Nearest{}
	xs := [][]float64{{0}, {5}, {9}}
	ys := []float64{1, 2, 3}
	got, err := nn.Predict(xs, ys, []float64{6})
	if err != nil || got != 2 {
		t.Errorf("nearest = %v, err %v", got, err)
	}
	if _, err := nn.Predict(nil, nil, []float64{0}); !errors.Is(err, ErrNoSupport) {
		t.Error("nearest accepted empty support")
	}
}

func TestNearestTieBreaksLowIndex(t *testing.T) {
	nn := &Nearest{}
	xs := [][]float64{{0}, {2}}
	ys := []float64{1, 2}
	got, err := nn.Predict(xs, ys, []float64{1})
	if err != nil || got != 1 {
		t.Errorf("tie break = %v, want first support's value", got)
	}
}

func TestDistances(t *testing.T) {
	a, b := []float64{1, 2}, []float64{4, 6}
	if L1Distance(a, b) != 7 {
		t.Error("L1Distance wrong")
	}
	if L2Distance(a, b) != 5 {
		t.Error("L2Distance wrong")
	}
}

func TestInterpolatorNames(t *testing.T) {
	for _, ip := range []Interpolator{&Ordinary{}, &Simple{}, &IDW{}, &Nearest{}} {
		if ip.Name() == "" {
			t.Errorf("%T has empty name", ip)
		}
	}
}

func TestLeaveOneOut(t *testing.T) {
	xs, ys := grid2D(4, func(x, y float64) float64 { return 2*x + y })
	res := LeaveOneOut(&Ordinary{}, xs, ys)
	if res.N != 16 {
		t.Fatalf("LOOCV N = %d", res.N)
	}
	if res.Failed != 0 {
		t.Errorf("LOOCV failures: %d", res.Failed)
	}
	if res.MeanAbs > 0.5 {
		t.Errorf("LOOCV mean abs error %v too large for a linear field", res.MeanAbs)
	}
	if math.Abs(res.MeanBias) > 0.5 {
		t.Errorf("LOOCV bias %v too large", res.MeanBias)
	}
	if res.RMS < res.MeanAbs-1e-9 {
		t.Errorf("RMS %v < mean abs %v", res.RMS, res.MeanAbs)
	}
}

func TestLeaveOneOutTiny(t *testing.T) {
	res := LeaveOneOut(&Ordinary{}, [][]float64{{0}}, []float64{1})
	if res.N != 0 {
		t.Error("LOOCV on one point should do nothing")
	}
}

func TestPropertyOrdinaryWithinRangeForInteriorQueries(t *testing.T) {
	// For a monotone bounded field and interior queries, predictions
	// should stay within a modest margin of the data range.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		xs, ys := grid2D(3, func(x, y float64) float64 {
			return math.Sin(x+float64(seed%7)) + math.Cos(y)
		})
		o := &Ordinary{}
		q := []float64{r.Float64() * 2, r.Float64() * 2}
		got, err := o.Predict(xs, ys, q)
		if err != nil {
			return true
		}
		lo, hi := ys[0], ys[0]
		for _, v := range ys {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		span := hi - lo + 1e-9
		return got >= lo-span && got <= hi+span
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPropertyShiftInvariance(t *testing.T) {
	// Because ordinary-kriging weights sum to one (Eq. 6), shifting all
	// support values by a constant shifts the prediction by exactly that
	// constant.
	f := func(seed uint64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) {
			return true
		}
		shift = math.Mod(shift, 1e6)
		r := rng.New(seed)
		xs, ys := grid2D(3, func(x, y float64) float64 {
			return math.Sin(x*1.3) + 2*y
		})
		o := &Ordinary{}
		q := []float64{r.Float64() * 2, r.Float64() * 2}
		base, err := o.Predict(xs, ys, q)
		if err != nil {
			return true
		}
		shifted := make([]float64, len(ys))
		for i, v := range ys {
			shifted[i] = v + shift
		}
		// The variogram is shift-invariant too (it only sees value
		// differences), so the full prediction must move by shift.
		got, err := o.Predict(xs, shifted, q)
		if err != nil {
			return true
		}
		return math.Abs(got-(base+shift)) <= 1e-6*(1+math.Abs(shift))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyExactnessAtRandomSupports(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(6)
		xs := make([][]float64, n)
		ys := make([]float64, n)
		used := map[string]bool{}
		for i := range xs {
			for {
				x := []float64{float64(r.Intn(8)), float64(r.Intn(8))}
				k := L1Distance(x, []float64{0, 0})
				key := string(rune(int(x[0]))) + "," + string(rune(int(x[1])))
				_ = k
				if !used[key] {
					used[key] = true
					xs[i] = x
					break
				}
			}
			ys[i] = r.NormScaled(0, 5)
		}
		o := &Ordinary{}
		i := r.Intn(n)
		got, err := o.Predict(xs, ys, xs[i])
		if err != nil {
			return true
		}
		return almostEqual(got, ys[i], 1e-4*(1+math.Abs(ys[i])))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

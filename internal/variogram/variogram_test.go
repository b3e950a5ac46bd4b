package variogram

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func l1(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

func TestCloudFromSamples(t *testing.T) {
	xs := [][]float64{{0}, {1}, {3}}
	ys := []float64{10, 12, 20}
	pairs := CloudFromSamples(xs, ys, l1)
	if len(pairs) != 3 {
		t.Fatalf("cloud has %d pairs, want 3", len(pairs))
	}
	// Pair (0,1): dist 1, sq 4. Pair (0,2): dist 3, sq 100. Pair (1,2): dist 2, sq 64.
	want := map[float64]float64{1: 4, 3: 100, 2: 64}
	for _, p := range pairs {
		if want[p.Dist] != p.Sq {
			t.Errorf("pair at d=%v has sq=%v, want %v", p.Dist, p.Sq, want[p.Dist])
		}
	}
}

func TestCloudPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched inputs did not panic")
		}
	}()
	CloudFromSamples([][]float64{{0}}, []float64{1, 2}, l1)
}

func TestEmpiricalExactEq4(t *testing.T) {
	// Hand-checkable Eq. 4: two pairs at distance 1 with squared diffs
	// 4 and 16 -> gamma(1) = (4+16)/(2*2) = 5.
	pairs := []Pair{{Dist: 1, Sq: 4}, {Dist: 1, Sq: 16}, {Dist: 2, Sq: 8}}
	bins := EmpiricalExact(pairs)
	if len(bins) != 2 {
		t.Fatalf("got %d bins, want 2", len(bins))
	}
	if bins[0].Dist != 1 || !almostEqual(bins[0].Gamma, 5, 1e-12) || bins[0].Count != 2 {
		t.Errorf("bin 0 = %+v", bins[0])
	}
	if bins[1].Dist != 2 || !almostEqual(bins[1].Gamma, 4, 1e-12) || bins[1].Count != 1 {
		t.Errorf("bin 1 = %+v", bins[1])
	}
}

func TestFitPowerRecoversAlpha(t *testing.T) {
	// Synthesise a perfect power-law field gamma(h) = 2.5 h^1.5 and
	// check the NR least-squares recovers alpha.
	var pairs []Pair
	for _, h := range []float64{1, 2, 3, 4, 5} {
		gamma := 2.5 * math.Pow(h, 1.5)
		pairs = append(pairs, Pair{Dist: h, Sq: 2 * gamma})
	}
	m, err := FitPower(pairs, 1.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m.Alpha, 2.5, 1e-9) {
		t.Errorf("alpha = %v, want 2.5", m.Alpha)
	}
	if !almostEqual(m.Gamma(2), 2.5*math.Pow(2, 1.5), 1e-9) {
		t.Errorf("Gamma(2) = %v", m.Gamma(2))
	}
}

func TestFitPowerInvalidBetaFallsBack(t *testing.T) {
	pairs := []Pair{{Dist: 1, Sq: 2}, {Dist: 2, Sq: 4}}
	m, err := FitPower(pairs, 7, 0) // invalid beta -> DefaultBeta
	if err != nil {
		t.Fatal(err)
	}
	if m.Beta != DefaultBeta {
		t.Errorf("beta = %v, want %v", m.Beta, DefaultBeta)
	}
}

func TestFitPowerInsufficient(t *testing.T) {
	if _, err := FitPower(nil, 1.5, 0); !errors.Is(err, ErrInsufficientData) {
		t.Error("empty cloud fitted")
	}
	// Only zero-distance pairs carry no slope information.
	if _, err := FitPower([]Pair{{Dist: 0, Sq: 4}}, 1.5, 0); !errors.Is(err, ErrInsufficientData) {
		t.Error("zero-distance-only cloud fitted")
	}
}

func TestFitLinearRecoversSlope(t *testing.T) {
	var pairs []Pair
	for _, h := range []float64{1, 2, 4, 8} {
		pairs = append(pairs, Pair{Dist: h, Sq: 2 * 3 * h})
	}
	m, err := FitLinear(pairs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m.Slope, 3, 1e-9) {
		t.Errorf("slope = %v, want 3", m.Slope)
	}
}

func TestFitWithNugget(t *testing.T) {
	var pairs []Pair
	for _, h := range []float64{1, 2, 3} {
		gamma := 1.0 + 2*h // nugget 1, slope 2
		pairs = append(pairs, Pair{Dist: h, Sq: 2 * gamma})
	}
	m, err := FitLinear(pairs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m.Slope, 2, 1e-9) {
		t.Errorf("slope with nugget = %v, want 2", m.Slope)
	}
	if !almostEqual(m.Gamma(0), 1, 1e-12) {
		t.Errorf("Gamma(0) = %v, want nugget 1", m.Gamma(0))
	}
}

func TestBoundedModels(t *testing.T) {
	sph := &SphericalModel{Sill: 4, Range: 10}
	if !almostEqual(sph.Gamma(10), 4, 1e-12) || !almostEqual(sph.Gamma(25), 4, 1e-12) {
		t.Error("spherical plateau wrong")
	}
	if sph.Gamma(5) >= 4 || sph.Gamma(5) <= 0 {
		t.Error("spherical mid-range out of (0, sill)")
	}
	exp := &ExponentialModel{Sill: 4, Range: 2}
	if exp.Gamma(1e9) < 3.99 {
		t.Error("exponential does not approach sill")
	}
	gau := &GaussianModel{Sill: 4, Range: 2}
	if gau.Gamma(1e9) < 3.99 {
		t.Error("gaussian does not approach sill")
	}
}

func TestFitBoundedFamilies(t *testing.T) {
	// A spherical-looking cloud: gamma rises then plateaus.
	var pairs []Pair
	truth := &SphericalModel{Sill: 9, Range: 6}
	for _, h := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9} {
		pairs = append(pairs, Pair{Dist: h, Sq: 2 * truth.Gamma(h)})
	}
	for _, kind := range []Kind{Spherical, Exponential, Gaussian} {
		m, err := Fit(kind, pairs, 0)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		// The sill estimate should land in the right decade.
		if m.Gamma(100) < 3 || m.Gamma(100) > 27 {
			t.Errorf("%s: Gamma(inf) = %v, want ~9", kind, m.Gamma(100))
		}
	}
}

func TestFitInsufficientBounded(t *testing.T) {
	for _, kind := range []Kind{Spherical, Exponential, Gaussian} {
		if _, err := Fit(kind, nil, 0); !errors.Is(err, ErrInsufficientData) {
			t.Errorf("%s fitted empty cloud", kind)
		}
	}
}

func TestModelNamesAndParams(t *testing.T) {
	models := []Model{
		&PowerModel{Alpha: 1, Beta: 1.5},
		&LinearModel{Slope: 1},
		&SphericalModel{Sill: 1, Range: 1},
		&ExponentialModel{Sill: 1, Range: 1},
		&GaussianModel{Sill: 1, Range: 1},
	}
	for _, m := range models {
		if m.Name() == "" || len(m.Params()) == 0 {
			t.Errorf("model %T missing name or params", m)
		}
	}
}

func TestPropertyModelsNonDecreasing(t *testing.T) {
	// Every fitted model must be non-decreasing in h (required for a
	// well-posed kriging system on our lattices).
	f := func(seed uint64) bool {
		r := rng.New(seed)
		var pairs []Pair
		for i := 0; i < 10; i++ {
			h := 1 + r.Float64()*9
			pairs = append(pairs, Pair{Dist: h, Sq: r.Float64() * 10})
		}
		for _, kind := range []Kind{Power, Linear, Spherical, Exponential, Gaussian} {
			m, err := Fit(kind, pairs, 0)
			if err != nil {
				continue
			}
			prev := m.Gamma(0)
			for h := 0.5; h < 20; h += 0.5 {
				g := m.Gamma(h)
				if g < prev-1e-12 {
					return false
				}
				prev = g
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyFitPowerNonNegativeAlpha(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		var pairs []Pair
		for i := 0; i < 8; i++ {
			pairs = append(pairs, Pair{Dist: r.Float64() * 5, Sq: r.Float64() * 4})
		}
		m, err := FitPower(pairs, 1.5, 0)
		if err != nil {
			return true
		}
		return m.Alpha >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

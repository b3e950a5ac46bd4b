package space

import (
	"testing"
	"testing/quick"

	"repro/internal/kriging"
	"repro/internal/rng"
)

func TestCloneIndependence(t *testing.T) {
	c := Config{1, 2, 3}
	d := c.Clone()
	d[0] = 99
	if c[0] == 99 {
		t.Fatal("Clone shares storage")
	}
}

func TestEqual(t *testing.T) {
	if !(Config{1, 2}).Equal(Config{1, 2}) {
		t.Error("equal configs not equal")
	}
	if (Config{1, 2}).Equal(Config{1, 3}) {
		t.Error("different configs equal")
	}
	if (Config{1, 2}).Equal(Config{1, 2, 3}) {
		t.Error("different lengths equal")
	}
}

func TestKeyString(t *testing.T) {
	c := Config{4, -1, 7}
	if c.Key() != "4,-1,7" {
		t.Errorf("Key = %q", c.Key())
	}
	if c.String() != "(4,-1,7)" {
		t.Errorf("String = %q", c.String())
	}
}

func TestKeyInjectiveOnExamples(t *testing.T) {
	// Keys must distinguish (1, 23) from (12, 3).
	if (Config{1, 23}).Key() == (Config{12, 3}).Key() {
		t.Fatal("Key collision")
	}
}

func TestFloats(t *testing.T) {
	f := (Config{2, 5}).Floats()
	if f[0] != 2.0 || f[1] != 5.0 {
		t.Errorf("Floats = %v", f)
	}
}

func TestWith(t *testing.T) {
	c := Config{1, 2, 3}
	d := c.With(1, 9)
	if d[1] != 9 || c[1] != 2 {
		t.Errorf("With mutated original or missed: c=%v d=%v", c, d)
	}
}

func TestL1Known(t *testing.T) {
	if L1(Config{1, 2, 3}, Config{3, 2, 0}) != 5 {
		t.Error("L1 wrong")
	}
	if L1(Config{}, Config{}) != 0 {
		t.Error("L1 of empty configs should be 0")
	}
}

func TestDistancePanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("L1 dimension mismatch did not panic")
		}
	}()
	L1(Config{1}, Config{1, 2})
}

// TestDistanceFloatsAgreesWithInts: kriging measures the support in the
// float coordinates Floats hands out, with kriging.L1Distance, while the
// store reports neighbour distances from the integer L1. On integer
// configurations the two must agree exactly.
func TestDistanceFloatsAgreesWithInts(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(24)
		a, b := randConfig(r, n), randConfig(r, n)
		if got, want := kriging.L1Distance(a.Floats(), b.Floats()), float64(L1(a, b)); got != want {
			t.Fatalf("%v %v: float L1 = %v, int L1 = %v", a, b, got, want)
		}
	}
}

func randConfig(r *rng.Stream, n int) Config {
	c := make(Config, n)
	for i := range c {
		c[i] = r.IntRange(-20, 20)
	}
	return c
}

func TestPropertyMetricAxioms(t *testing.T) {
	// Symmetry, identity and the triangle inequality for L1.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(6)
		a, b, c := randConfig(r, n), randConfig(r, n), randConfig(r, n)
		return L1(a, b) == L1(b, a) && L1(a, a) == 0 && L1(a, c) <= L1(a, b)+L1(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyNormOrdering(t *testing.T) {
	// max|aᵢ − bᵢ| <= L1(a, b) <= n·max|aᵢ − bᵢ|, and |Σa − Σb| <=
	// L1(a, b): the lower bound the store's radius scan filters on.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(6)
		a, b := randConfig(r, n), randConfig(r, n)
		gap, linf := 0, 0
		for i := range a {
			gap += a[i] - b[i]
			d := a[i] - b[i]
			if d < 0 {
				d = -d
			}
			if d > linf {
				linf = d
			}
		}
		if gap < 0 {
			gap = -gap
		}
		l1 := L1(a, b)
		return gap <= l1 && linf <= l1 && l1 <= n*linf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

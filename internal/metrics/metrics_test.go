package metrics

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNoisePowerKnown(t *testing.T) {
	p, err := NoisePower([]float64{1, 2, 3}, []float64{1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(p, 4.0/3, 1e-12) {
		t.Errorf("P = %v, want 4/3", p)
	}
}

func TestNoisePowerZeroOnIdentical(t *testing.T) {
	p, err := NoisePower([]float64{1, -1}, []float64{1, -1})
	if err != nil || p != 0 {
		t.Errorf("P = %v, err = %v", p, err)
	}
}

func TestNoisePowerErrors(t *testing.T) {
	if _, err := NoisePower([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NoisePower(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Error("empty input accepted")
	}
}

func TestDBRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-9, 1e-3, 1, 42} {
		if got := math.Pow(10, DB(p)/10); !almostEqual(got, p, 1e-12*p) {
			t.Errorf("10^(DB(%v)/10) = %v", p, got)
		}
	}
	if !math.IsInf(DB(0), -1) || !math.IsInf(DB(-1), -1) {
		t.Error("DB of non-positive power should be -Inf")
	}
}

func TestDBKnown(t *testing.T) {
	if !almostEqual(DB(0.1), -10, 1e-12) {
		t.Errorf("DB(0.1) = %v", DB(0.1))
	}
	if !almostEqual(DB(100), 20, 1e-12) {
		t.Errorf("DB(100) = %v", DB(100))
	}
}

func TestEpsilonBits(t *testing.T) {
	// A factor-4 power misestimate is exactly 2 bits.
	if e := EpsilonBits(4e-6, 1e-6); !almostEqual(e, 2, 1e-12) {
		t.Errorf("EpsilonBits(4P, P) = %v, want 2", e)
	}
	// Symmetric in direction.
	if e := EpsilonBits(1e-6, 4e-6); !almostEqual(e, 2, 1e-12) {
		t.Errorf("EpsilonBits(P/4, P) = %v, want 2", e)
	}
	if EpsilonBits(1e-6, 1e-6) != 0 {
		t.Error("exact estimate should give 0 bits")
	}
	if EpsilonBits(0, 0) != 0 {
		t.Error("both-zero should give 0")
	}
	if !math.IsInf(EpsilonBits(-1e-9, 1e-6), 1) {
		t.Error("negative estimate vs positive truth should be +Inf")
	}
	if !math.IsInf(EpsilonBits(1e-6, 0), 1) {
		t.Error("positive estimate vs zero truth should be +Inf")
	}
}

func TestEpsilonRelative(t *testing.T) {
	if e := EpsilonRelative(1.1, 1.0); !almostEqual(e, 0.1, 1e-12) {
		t.Errorf("EpsilonRelative = %v", e)
	}
	if EpsilonRelative(0, 0) != 0 {
		t.Error("0/0 should be 0")
	}
	if !math.IsInf(EpsilonRelative(1, 0), 1) {
		t.Error("nonzero/0 should be +Inf")
	}
	// Sign of the truth must not matter.
	if e := EpsilonRelative(-1.1, -1.0); !almostEqual(e, 0.1, 1e-12) {
		t.Errorf("EpsilonRelative negative = %v", e)
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	if s.Max() != 0 || s.Mean() != 0 {
		t.Error("empty summary not zeroed")
	}
	s.Add(1)
	s.Add(3)
	s.Add(2)
	s.Add(math.Inf(1))
	s.Add(math.NaN())
	if s.InfCount() != 1 {
		t.Errorf("InfCount = %d", s.InfCount())
	}
	if s.Max() != 3 {
		t.Errorf("Max = %v", s.Max())
	}
	if !almostEqual(s.Mean(), 2, 1e-12) {
		t.Errorf("Mean = %v", s.Mean())
	}
}

func TestPropertyEpsilonBitsSymmetry(t *testing.T) {
	f := func(a, b float64) bool {
		pa, pb := math.Abs(a)+1e-12, math.Abs(b)+1e-12
		return almostEqual(EpsilonBits(pa, pb), EpsilonBits(pb, pa), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyNoisePowerNonNegative(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		ys := make([]float64, len(xs))
		p, err := NoisePower(xs, ys)
		return err == nil && p >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertySummaryMeanLeMax(t *testing.T) {
	f := func(xs []float64) bool {
		var s Summary
		for _, v := range xs {
			// Fold extreme magnitudes into a finite range: the summary
			// is used for interpolation errors, never near overflow.
			s.Add(math.Mod(math.Abs(v), 1e12))
		}
		return s.Mean() <= s.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package signal

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/space"
)

func TestDesignLowpassFIRProperties(t *testing.T) {
	h, err := DesignLowpassFIR(64, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 64 {
		t.Fatalf("taps = %d", len(h))
	}
	// Unit DC gain.
	var sum float64
	for _, v := range h {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("DC gain = %v", sum)
	}
	// Linear phase: symmetric impulse response.
	for i := 0; i < 32; i++ {
		if math.Abs(h[i]-h[63-i]) > 1e-12 {
			t.Errorf("asymmetry at tap %d", i)
		}
	}
}

// firFreqResponse evaluates |H(f)| of an FIR at normalised frequency f.
func firFreqResponse(h []float64, f float64) float64 {
	var re, im float64
	for n, v := range h {
		re += v * math.Cos(-2*math.Pi*f*float64(n))
		im += v * math.Sin(-2*math.Pi*f*float64(n))
	}
	return math.Hypot(re, im)
}

func TestDesignLowpassFIRFrequencyShape(t *testing.T) {
	h, err := DesignLowpassFIR(64, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	if g := firFreqResponse(h, 0.01); g < 0.9 {
		t.Errorf("passband gain %v", g)
	}
	if g := firFreqResponse(h, 0.35); g > 0.05 {
		t.Errorf("stopband gain %v", g)
	}
}

func TestDesignLowpassFIRValidation(t *testing.T) {
	if _, err := DesignLowpassFIR(1, 0.2); err == nil {
		t.Error("1 tap accepted")
	}
	if _, err := DesignLowpassFIR(8, 0.6); err == nil {
		t.Error("cutoff > 0.5 accepted")
	}
	if _, err := DesignLowpassFIR(8, 0); err == nil {
		t.Error("zero cutoff accepted")
	}
}

func TestFIRFixedApproachesReference(t *testing.T) {
	f, err := NewFIR()
	if err != nil {
		t.Fatal(err)
	}
	x := dataset.Signal(rng.New(1), 512, 0.9)
	ref := f.Reference(x)
	// At 16 fractional bits the datapath noise is dominated by the
	// 15-bit coefficient quantisation; anything below -60 dB is healthy.
	y, err := f.Fixed(space.Config{16, 16}, x)
	if err != nil {
		t.Fatal(err)
	}
	p, err := metrics.NoisePower(y, ref)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-6 {
		t.Errorf("P at 16 bits = %v, want < 1e-6", p)
	}
}

func TestFIRNoiseDecreasesWithWordLength(t *testing.T) {
	f, err := NewFIR()
	if err != nil {
		t.Fatal(err)
	}
	x := dataset.Signal(rng.New(2), 512, 0.9)
	ref := f.Reference(x)
	var prev float64 = math.Inf(1)
	for _, w := range []int{4, 8, 12, 16} {
		y, err := f.Fixed(space.Config{w, w}, x)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := metrics.NoisePower(y, ref)
		if p > prev*1.05 {
			t.Errorf("noise power grew from %v to %v at w=%d", prev, p, w)
		}
		prev = p
	}
}

func TestFIRFixedRejectsBadConfig(t *testing.T) {
	f, _ := NewFIR()
	if _, err := f.Fixed(space.Config{8}, []float64{1}); err == nil {
		t.Error("short config accepted")
	}
	if _, err := f.Fixed(space.Config{-1, 8}, []float64{1}); err == nil {
		t.Error("negative word-length accepted")
	}
}

func TestFIRBenchmarkInterface(t *testing.T) {
	b, err := NewFIRBenchmark(1, 128)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "fir" || b.Nv() != 2 {
		t.Errorf("Name/Nv: %s %d", b.Name(), b.Nv())
	}
	if err := b.Bounds().Validate(); err != nil {
		t.Error(err)
	}
	p, err := b.NoisePower(space.Config{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 {
		t.Errorf("P = %v, want > 0 at 8 bits", p)
	}
}

func TestFIRBenchmarkDeterministicAcrossInstances(t *testing.T) {
	a, _ := NewFIRBenchmark(7, 128)
	b, _ := NewFIRBenchmark(7, 128)
	pa, _ := a.NoisePower(space.Config{6, 9})
	pb, _ := b.NoisePower(space.Config{6, 9})
	if pa != pb {
		t.Errorf("same seed, different powers: %v vs %v", pa, pb)
	}
	c, _ := NewFIRBenchmark(8, 128)
	pc, _ := c.NoisePower(space.Config{6, 9})
	if pa == pc {
		t.Error("different seeds produced identical powers (suspicious)")
	}
}

func TestFIRSimulatorLambdaIsNegPower(t *testing.T) {
	b, _ := NewFIRBenchmark(1, 128)
	sim := &Simulator{B: b}
	if sim.Nv() != 2 {
		t.Error("Nv passthrough")
	}
	lam, err := sim.Evaluate(space.Config{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := b.NoisePower(space.Config{8, 8})
	if lam != -p {
		t.Errorf("λ = %v, want %v", lam, -p)
	}
}

func TestNewFIRBenchmarkValidation(t *testing.T) {
	if _, err := NewFIRBenchmark(1, 0); err == nil {
		t.Error("zero samples accepted")
	}
}

// TestQ15MatchesRoundOracle checks the Q0.15 input register bit for bit
// against math.Round(x/2^-15)·2^-15 saturated to [-1, 1-2^-15], with NaN
// mapping to 0: at ties ±(k+1/2) steps, at and beside ±1, on saturating
// inputs, on ±Inf and NaN, and on seeded random values at every
// magnitude.
func TestQ15MatchesRoundOracle(t *testing.T) {
	const step, hi = 0x1p-15, 1 - 0x1p-15
	oracle := func(x float64) float64 {
		if math.IsNaN(x) {
			return 0
		}
		v := math.Round(x/step) * step
		if v < -1 {
			return -1
		}
		if v > hi {
			return hi
		}
		return v
	}
	cases := []struct{ in, want float64 }{
		{step / 2, step},          // a tie rounds away from zero
		{-step / 2, -step},        // on both sides
		{5.5 * step, 6 * step},    // ...at every k
		{-5.5 * step, -6 * step},  //
		{0.4 * step, 0},           // below the tie rounds to zero
		{1, hi},                   // +1 is out of range
		{-1, -1},                  // -1 is the range's low end
		{hi + step/4, hi},         // rounds down to hi
		{hi + step/2, hi},         // rounds up to 1, saturates
		{-1 - step/4, -1},         // rounds up to -1
		{-1 - step/2, -1},         // rounds down past -1, saturates
		{1e300, hi},               // far beyond the range
		{-1e300, -1},              //
		{math.Inf(1), hi},         // ±Inf saturate
		{math.Inf(-1), -1},        //
		{math.NaN(), 0},           // a datapath has no NaN
		{math.Copysign(0, -1), 0}, // -0 stays on the grid
	}
	for _, c := range cases {
		got := q15(c.in)
		if got != c.want {
			t.Errorf("q15(%v) = %v, want %v", c.in, got, c.want)
		}
		if math.Float64bits(got) != math.Float64bits(oracle(c.in)) {
			t.Errorf("q15(%v) = %v, oracle %v", c.in, got, oracle(c.in))
		}
	}
	var xs []float64
	for k := -40000; k <= 40000; k++ {
		xs = append(xs, (float64(k)+0.5)*step)
	}
	r := rng.New(15)
	for i := 0; i < 10000; i++ {
		xs = append(xs, 4*r.Float64()-2, math.Float64frombits(r.Uint64()))
	}
	for _, x := range xs {
		if got, want := q15(x), oracle(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("q15(%v) = %v, oracle %v", x, got, want)
		}
	}
}

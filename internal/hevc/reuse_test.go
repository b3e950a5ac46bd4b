package hevc

import (
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

// reuseCases are the two simulations that share a Benchmark's
// horizontal-pass entry. Each mk returns the simulation and the
// Benchmark whose entry it reads.
var reuseCases = []struct {
	name string
	mk   func() (func(space.Config) (float64, error), *Benchmark, error)
}{
	{"noise", func() (func(space.Config) (float64, error), *Benchmark, error) {
		b, err := NewBenchmark(7, 4)
		if err != nil {
			return nil, nil, err
		}
		return b.NoisePower, b, nil
	}},
	{"ssim", func() (func(space.Config) (float64, error), *Benchmark, error) {
		b, err := NewSSIMBenchmark(7, 4)
		if err != nil {
			return nil, nil, err
		}
		return b.Evaluate, b.inner, nil
	}},
}

// minPlusOneSequence returns rounds of a seeded min+1-shaped walk: the
// incumbent, its lumaNv single-bit increments in node order, then the
// next incumbent (one of those increments, drawn at random), and so on.
func minPlusOneSequence(seed uint64, rounds int) []space.Config {
	r := rng.NewNamed(seed, "hevc-reuse")
	inc := make(space.Config, lumaNv)
	for i := range inc {
		inc[i] = r.IntRange(3, 8)
	}
	// inter re-quantises values already on h_acc's and h_out's grids,
	// so it changes the planes only while narrower than both: start it
	// narrower, so that its increments change the values.
	inc[hNodes-3], inc[hNodes-2] = r.IntRange(7, 9), r.IntRange(7, 9)
	inc[hNodes-1] = r.IntRange(3, 5)
	var seq []space.Config
	for k := 0; k < rounds; k++ {
		seq = append(seq, inc)
		for j := range inc {
			seq = append(seq, inc.With(j, inc[j]+1))
		}
		inc = seq[len(seq)-lumaNv+r.Intn(lumaNv)]
	}
	return seq
}

// coldValues simulates each configuration on a fresh Benchmark, whose
// entry is empty, so every value comes from a full interpolation.
func coldValues(t *testing.T, mk func() (func(space.Config) (float64, error), *Benchmark, error), seq []space.Config) []float64 {
	t.Helper()
	want := make([]float64, len(seq))
	for i, cfg := range seq {
		eval, _, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = eval(cfg); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestPlaneReuseBitIdentical drives both simulations through a min+1
// sequence, in order and shuffled, and holds every value bit for bit to
// a cold simulation of the same configuration.
func TestPlaneReuseBitIdentical(t *testing.T) {
	const rounds = 4
	seq := minPlusOneSequence(11, rounds)
	inOrder := make([]int, len(seq))
	for i := range inOrder {
		inOrder[i] = i
	}
	orders := []struct {
		name string
		idx  []int
	}{
		{"in order", inOrder},
		{"shuffled", rng.NewNamed(11, "hevc-reuse-shuffle").Perm(len(seq))},
	}
	for _, c := range reuseCases {
		want := coldValues(t, c.mk, seq)
		for _, o := range orders {
			eval, b, err := c.mk()
			if err != nil {
				t.Fatal(err)
			}
			hits := 0
			for _, i := range o.idx {
				before := b.last.Load()
				got, err := eval(seq[i])
				if err != nil {
					t.Fatal(err)
				}
				if before != nil && b.last.Load() == before {
					hits++
				}
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("%s %s: config %v = %v, want %v from a cold simulation", c.name, o.name, seq[i], got, want[i])
				}
			}
			// In order, every vertical-node candidate but the first
			// reuses the planes its predecessor published.
			if o.name == "in order" && hits < rounds*(lumaNv-hNodes-1) {
				t.Errorf("%s in order: %d of %d simulations reused the planes, want at least %d", c.name, hits, len(seq), rounds*(lumaNv-hNodes-1))
			}
		}
	}
}

// TestPlaneReuseConcurrent runs four goroutines through the min+1
// sequence on one shared Benchmark, each from a different offset, so
// entries are published and read concurrently. Run it under -race.
func TestPlaneReuseConcurrent(t *testing.T) {
	seq := minPlusOneSequence(13, 3)
	for _, c := range reuseCases {
		want := coldValues(t, c.mk, seq)
		eval, _, err := c.mk()
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(off int) {
				defer wg.Done()
				for k := range seq {
					i := (off + k) % len(seq)
					got, err := eval(seq[i])
					if err != nil {
						t.Error(err)
						return
					}
					if math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Errorf("%s: config %v = %v, want %v from a cold simulation", c.name, seq[i], got, want[i])
					}
				}
			}(g * len(seq) / 4)
		}
		wg.Wait()
	}
}

package store

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/space"
)

func TestAddLookup(t *testing.T) {
	s := New()
	if added := s.Add(space.Config{1, 2}, -3.5); !added {
		t.Error("first Add reported not-added")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	v, ok := s.Lookup(space.Config{1, 2})
	if !ok || v != -3.5 {
		t.Errorf("Lookup = %v, %v", v, ok)
	}
	if _, ok := s.Lookup(space.Config{2, 1}); ok {
		t.Error("Lookup found a missing config")
	}
}

func TestAddOverwrites(t *testing.T) {
	s := New()
	s.Add(space.Config{1}, 1)
	if added := s.Add(space.Config{1}, 2); added {
		t.Error("duplicate Add reported added")
	}
	if s.Len() != 1 {
		t.Errorf("Len after duplicate = %d", s.Len())
	}
	v, _ := s.Lookup(space.Config{1})
	if v != 2 {
		t.Errorf("value not overwritten: %v", v)
	}
}

func TestAddClonesConfig(t *testing.T) {
	s := New()
	c := space.Config{1, 2}
	s.Add(c, 0)
	c[0] = 99
	if _, ok := s.Lookup(space.Config{1, 2}); !ok {
		t.Error("store contents aliased the caller's slice")
	}
}

func TestNeighborsMatchesBruteForce(t *testing.T) {
	r := rng.New(4)
	s := New()
	var entries []Entry
	for i := 0; i < 60; i++ {
		c := space.Config{r.IntRange(0, 9), r.IntRange(0, 9), r.IntRange(0, 9)}
		if s.Add(c, float64(i)) {
			entries = append(entries, Entry{Config: c.Clone(), Lambda: float64(i)})
		}
	}
	q := space.Config{4, 4, 4}
	for _, d := range []float64{0, 1, 2, 5} {
		nb := s.Neighbors(q, d)
		want := 0
		for _, e := range entries {
			if float64(space.L1(q, e.Config)) <= d {
				want++
			}
		}
		if nb.Len() != want {
			t.Errorf("d=%v: Neighbors = %d, brute force = %d", d, nb.Len(), want)
		}
		for i, dist := range nb.Dists {
			if dist > d {
				t.Errorf("d=%v: neighbour %d at distance %v", d, i, dist)
			}
		}
	}
}

func TestNeighborsParallelSlices(t *testing.T) {
	s := New()
	s.Add(space.Config{0}, 1)
	s.Add(space.Config{1}, 2)
	nb := s.Neighbors(space.Config{0}, 3)
	if len(nb.Coords) != nb.Len() || len(nb.Dists) != nb.Len() {
		t.Error("neighbourhood slices out of sync")
	}
}

func TestNearestK(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Add(space.Config{i}, float64(i))
	}
	nb := s.Neighbors(space.Config{0}, 100)
	top3 := nb.NearestK(3)
	if top3.Len() != 3 {
		t.Fatalf("NearestK(3) has %d", top3.Len())
	}
	for i, d := range top3.Dists {
		if d != float64(i) {
			t.Errorf("NearestK order wrong: %v", top3.Dists)
		}
	}
	// k <= 0 and k >= Len return the whole set.
	if nb.NearestK(0).Len() != 10 || nb.NearestK(99).Len() != 10 {
		t.Error("NearestK boundary behaviour wrong")
	}
}

func TestWithoutZeroDistance(t *testing.T) {
	s := New()
	s.Add(space.Config{0}, 1)
	s.Add(space.Config{2}, 2)
	nb := s.Neighbors(space.Config{0}, 5).WithoutZeroDistance()
	if nb.Len() != 1 || nb.Dists[0] != 2 {
		t.Errorf("WithoutZeroDistance = %+v", nb)
	}
}

func TestEntriesCopyAndOrder(t *testing.T) {
	s := New()
	s.Add(space.Config{5}, 1)
	s.Add(space.Config{3}, 2)
	es := s.Entries()
	if len(es) != 2 || es[0].Config[0] != 5 || es[1].Config[0] != 3 {
		t.Errorf("Entries = %+v", es)
	}
	es[0].Lambda = 99
	if v, _ := s.Lookup(space.Config{5}); v == 99 {
		t.Error("Entries returned a live view")
	}
}

func TestMetricUsedForNeighbors(t *testing.T) {
	// The neighbour distance is L1: a diagonal offset is at distance 2,
	// where L∞ would put it at 1 and L2 at √2.
	s := New()
	s.Add(space.Config{1, 1}, 0)
	q := space.Config{0, 0}
	for _, d := range []float64{1, 1.5} {
		if s.Neighbors(q, d).Len() != 0 {
			t.Errorf("diagonal point found at d=%v", d)
		}
	}
	if nb := s.Neighbors(q, 2); nb.Len() != 1 || nb.Dists[0] != 2 {
		t.Errorf("Neighbors(d=2) = %+v, want the diagonal point at distance 2", nb)
	}
}

func TestPropertyNeighborsSubsetOfStore(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		s := New()
		for i := 0; i < 30; i++ {
			s.Add(space.Config{r.IntRange(0, 6), r.IntRange(0, 6)}, r.Float64())
		}
		q := space.Config{r.IntRange(0, 6), r.IntRange(0, 6)}
		d := float64(r.Intn(6))
		nb := s.Neighbors(q, d)
		if nb.Len() > s.Len() {
			return false
		}
		for _, dist := range nb.Dists {
			if dist > d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

package store

import (
	"testing"

	"repro/internal/raceflag"
	"repro/internal/rng"
	"repro/internal/space"
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

// allocStore builds a populated store for the allocation gates.
func allocStore(n int) (*Store, []space.Config) {
	r := rng.New(77)
	s := New()
	for s.Len() < n {
		s.Add(randConfig(r, 4, 0, 25), r.Float64())
	}
	queries := make([]space.Config, 64)
	for i := range queries {
		queries[i] = randConfig(r, 4, 0, 25)
	}
	return s, queries
}

// TestAllocsNeighborsInto is the zero-allocation gate of the radius
// query: once the buffer is warm, NeighborsInto must not touch the heap,
// live store or snapshot.
func TestAllocsNeighborsInto(t *testing.T) {
	skipUnderRace(t)
	s, queries := allocStore(2000)
	snap := s.Snapshot()
	var buf Neighborhood
	i := 0
	// Warm the buffer across the query mix first.
	for _, w := range queries {
		s.NeighborsInto(&buf, w, 3)
	}
	if got := testing.AllocsPerRun(200, func() {
		s.NeighborsInto(&buf, queries[i%len(queries)], 3)
		i++
	}); got > 0 {
		t.Errorf("warm NeighborsInto allocates %.2f per run, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		snap.NeighborsInto(&buf, queries[i%len(queries)], 3)
		i++
	}); got > 0 {
		t.Errorf("warm Snapshot.NeighborsInto allocates %.2f per run, want 0", got)
	}
}

// TestAllocsNearestKInto extends the gate to the k-nearest query, both
// truncated (more than k in range) and not.
func TestAllocsNearestKInto(t *testing.T) {
	skipUnderRace(t)
	s, queries := allocStore(2000)
	var buf Neighborhood
	i := 0
	for _, w := range queries {
		for _, k := range []int{2, 10} {
			s.NearestKInto(&buf, w, 3, k)
		}
	}
	if got := testing.AllocsPerRun(200, func() {
		s.NearestKInto(&buf, queries[i%len(queries)], 3, 10)
		i++
	}); got > 0 {
		t.Errorf("warm NearestKInto allocates %.2f per run, want 0", got)
	}
}

// TestNearestKIntoEdgeCases covers the degenerate inputs: empty stores,
// zero snapshots, k beyond the in-range count, and the k<=0 radius
// degradation.
func TestNearestKIntoEdgeCases(t *testing.T) {
	s := New()
	var buf Neighborhood
	if nb := s.NearestKInto(&buf, space.Config{0, 0}, 3, 4); nb.Len() != 0 {
		t.Fatalf("empty store returned %d entries", nb.Len())
	}
	var zero Snapshot
	if nb := zero.NearestK(space.Config{0, 0}, 3, 4); nb.Len() != 0 {
		t.Fatalf("zero snapshot returned %d entries", nb.Len())
	}
	s.Add(space.Config{0, 0}, 1)
	s.Add(space.Config{1, 0}, 2)
	s.Add(space.Config{0, 2}, 3)
	// k beyond count: all in-range points, insertion order (the
	// NearestK(k >= Len) contract).
	nb := s.NearestK(space.Config{0, 0}, 2, 10)
	if nb.Len() != 3 || nb.Values[0] != 1 || nb.Values[1] != 2 || nb.Values[2] != 3 {
		t.Fatalf("k beyond count: %v (dists %v)", nb.Values, nb.Dists)
	}
	// k <= 0 degrades to the radius query.
	if nb := s.NearestK(space.Config{0, 0}, 2, 0); nb.Len() != 3 {
		t.Fatalf("k=0 returned %d entries", nb.Len())
	}
	// Truncation: nearest two by (distance, seq).
	nb = s.NearestK(space.Config{0, 0}, 2, 2)
	if nb.Len() != 2 || nb.Values[0] != 1 || nb.Values[1] != 2 {
		t.Fatalf("k=2: %v (dists %v)", nb.Values, nb.Dists)
	}
}

// TestNearestKIntoTieAmbiguity pins the ordering contract's dependence
// on the in-range total: with more than k points in range the k nearest
// come back by distance, with exactly k they keep insertion order.
func TestNearestKIntoTieAmbiguity(t *testing.T) {
	s := New()
	// Two near points (insertion order 2, 1 by distance) and one far
	// point still inside the radius.
	for _, e := range []struct {
		c   space.Config
		lam float64
	}{
		{space.Config{0, 1}, 1}, // dist 1
		{space.Config{0, 0}, 2}, // dist 0
		{space.Config{4, 4}, 3}, // dist 8
	} {
		s.Add(e.c, e.lam)
	}
	w := space.Config{0, 0}
	got := s.NearestK(w, 8, 2)
	assertSameNeighborhood(t, "k=2 with far straggler", got, s.Neighbors(w, 8).NearestK(2))
	if got.Values[0] != 2 || got.Values[1] != 1 {
		t.Errorf("k=2 with far straggler: Values = %v, want [2 1] (by distance)", got.Values)
	}
	// And with the radius shrunk so the total is exactly k: insertion
	// order must come back.
	got = s.NearestK(w, 1, 2)
	assertSameNeighborhood(t, "total == k", got, s.Neighbors(w, 1).NearestK(2))
	if got.Values[0] != 1 || got.Values[1] != 2 {
		t.Errorf("total == k: Values = %v, want [1 2] (insertion order)", got.Values)
	}
}

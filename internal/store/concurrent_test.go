package store

import (
	"sync"
	"testing"

	"repro/internal/space"
)

// TestConcurrentAddLookup hammers one store from 32 goroutines with
// disjoint key ranges and checks the final contents are exact. Run with
// -race to validate the publication protocol.
func TestConcurrentAddLookup(t *testing.T) {
	const goroutines = 32
	const perG = 100
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c := space.Config{g, i}
				s.Add(c, float64(g*perG+i))
				// Interleave reads on the hot paths.
				if v, ok := s.Lookup(c); !ok || v != float64(g*perG+i) {
					t.Errorf("Lookup(%v) = %v, %v", c, v, ok)
				}
				s.Neighbors(c, 2)
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != goroutines*perG {
		t.Fatalf("Len = %d, want %d", s.Len(), goroutines*perG)
	}
	if got := len(s.Entries()); got != goroutines*perG {
		t.Fatalf("Entries = %d, want %d", got, goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if v, ok := s.Lookup(space.Config{g, i}); !ok || v != float64(g*perG+i) {
				t.Fatalf("post-race Lookup({%d,%d}) = %v, %v", g, i, v, ok)
			}
		}
	}
}

// TestConcurrentNeighbors hammers the radius query while writers grow
// the store, then checks the quiesced store against a twin built
// sequentially from its own entries: the final neighbourhoods must
// agree exactly. Run with -race to validate the view publication.
func TestConcurrentNeighbors(t *testing.T) {
	const goroutines = 8
	const perG = 150
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c := space.Config{g, i % 12, i / 12}
				s.Add(c, float64(g*perG+i))
				s.Neighbors(c, 2)
				s.Neighbors(c, 40)
			}
		}(g)
	}
	wg.Wait()
	twin := New()
	for _, e := range s.Entries() {
		twin.Add(e.Config, e.Lambda)
	}
	if s.Len() != goroutines*perG || twin.Len() != s.Len() {
		t.Fatalf("Len = %d (twin %d), want %d", s.Len(), twin.Len(), goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		w := space.Config{g, 5, 5}
		for _, d := range []float64{1, 3, 7} {
			assertSameNeighborhood(t, "quiesced", s.Neighbors(w, d), twin.Neighbors(w, d))
		}
	}
}

// TestSnapshotFreezesContents checks that a snapshot ignores later Adds
// and keeps insertion order.
func TestSnapshotFreezesContents(t *testing.T) {
	s := New()
	s.Add(space.Config{0, 0}, 1)
	s.Add(space.Config{1, 0}, 2)
	snap := s.Snapshot()
	s.Add(space.Config{0, 1}, 3)

	if snap.Len() != 2 {
		t.Errorf("snapshot Len = %d, want 2", snap.Len())
	}
	if s.Len() != 3 {
		t.Errorf("store Len = %d, want 3", s.Len())
	}
	if _, ok := snap.Lookup(space.Config{0, 1}); ok {
		t.Error("snapshot sees a post-snapshot Add")
	}
	if v, ok := snap.Lookup(space.Config{1, 0}); !ok || v != 2 {
		t.Errorf("snapshot Lookup = %v, %v", v, ok)
	}
	nb := snap.Neighbors(space.Config{0, 0}, 5)
	if nb.Len() != 2 || nb.Values[0] != 1 || nb.Values[1] != 2 {
		t.Errorf("snapshot Neighbors = %+v", nb)
	}
	es := snap.Entries()
	if len(es) != 2 || es[0].Lambda != 1 || es[1].Lambda != 2 {
		t.Errorf("snapshot Entries = %+v", es)
	}
}

// TestZeroSnapshot checks the zero Snapshot behaves as empty.
func TestZeroSnapshot(t *testing.T) {
	var snap Snapshot
	if snap.Len() != 0 {
		t.Error("zero snapshot not empty")
	}
	if _, ok := snap.Lookup(space.Config{1}); ok {
		t.Error("zero snapshot Lookup hit")
	}
	if snap.Neighbors(space.Config{1}, 10).Len() != 0 {
		t.Error("zero snapshot has neighbours")
	}
}

// TestInsertionOrder checks that Neighbors and Entries report entries
// oldest-first.
func TestInsertionOrder(t *testing.T) {
	s := New()
	const n = 50
	for i := 0; i < n; i++ {
		s.Add(space.Config{i}, float64(i))
	}
	es := s.Entries()
	for i, e := range es {
		if e.Lambda != float64(i) {
			t.Fatalf("Entries[%d] = %+v, want lambda %d", i, e, i)
		}
	}
	nb := s.Neighbors(space.Config{0}, float64(n))
	for i, v := range nb.Values {
		if v != float64(i) {
			t.Fatalf("Neighbors order broken at %d: %v", i, nb.Values)
		}
	}
}

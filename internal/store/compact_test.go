package store

import (
	"fmt"
	"testing"

	"repro/internal/space"
)

// TestCompactDropsSupersededVersions overwrites a slice of the store
// several times and checks that Compact shrinks the memory-visible
// version count to the live entry count while every query surface —
// lookups, neighbourhoods, insertion order — is unchanged, and that
// snapshots taken before the compaction keep their epoch.
func TestCompactDropsSupersededVersions(t *testing.T) {
	s := New()
	var cfgs []space.Config
	for x := 0; x < 10; x++ {
		for y := 0; y < 10; y++ {
			c := space.Config{x, y}
			cfgs = append(cfgs, c)
			s.Add(c, float64(x*10+y))
		}
	}
	// Overwrite a third of the configurations, twice each (mixing the
	// per-Add and the bulk path), so superseded versions accumulate.
	var batch []Entry
	for i, c := range cfgs {
		if i%3 == 0 {
			s.Add(c, float64(i)+0.5)
			batch = append(batch, Entry{Config: c, Lambda: float64(i) + 0.25})
		}
	}
	s.AddBatch(batch)
	preSnap := s.Snapshot()

	if s.Len() != len(cfgs) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(cfgs))
	}
	wantDropped := 2 * len(batch)
	if v := s.Versions(); v != len(cfgs)+wantDropped {
		t.Fatalf("Versions = %d, want %d", v, len(cfgs)+wantDropped)
	}

	// Freeze the query surfaces before compaction.
	queries := []struct {
		w space.Config
		d float64
	}{
		{space.Config{0, 0}, 2}, {space.Config{5, 5}, 3},
		{space.Config{9, 1}, 4}, {space.Config{4, 7}, 1},
	}
	type nbKey struct{ coords, values, dists string }
	freeze := func() []nbKey {
		out := make([]nbKey, 0, len(queries))
		for _, q := range queries {
			nb := s.Neighbors(q.w, q.d)
			out = append(out, nbKey{
				coords: fmt.Sprint(nb.Coords),
				values: fmt.Sprint(nb.Values),
				dists:  fmt.Sprint(nb.Dists),
			})
		}
		return out
	}
	before := freeze()
	entriesBefore := fmt.Sprint(s.Entries())

	dropped := s.Compact()

	if dropped != wantDropped {
		t.Errorf("Compact dropped %d versions, want %d", dropped, wantDropped)
	}
	if v := s.Versions(); v != s.Len() {
		t.Errorf("after Compact: Versions = %d, want Len = %d", v, s.Len())
	}
	if s.Len() != len(cfgs) {
		t.Errorf("after Compact: Len = %d, want %d", s.Len(), len(cfgs))
	}
	after := freeze()
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("neighbourhood %d changed across Compact:\nbefore %+v\nafter  %+v",
				i, before[i], after[i])
		}
	}
	if entriesAfter := fmt.Sprint(s.Entries()); entriesAfter != entriesBefore {
		t.Error("Entries() changed across Compact")
	}
	for i, c := range cfgs {
		want := float64(i)
		if i%3 == 0 {
			want = float64(i) + 0.25
		}
		if got, ok := s.Lookup(c); !ok || got != want {
			t.Fatalf("Lookup(%v) = %v,%v, want %v", c, got, ok, want)
		}
	}
	// The pre-compaction snapshot still answers at its own epoch.
	if got, ok := preSnap.Lookup(cfgs[0]); !ok || got != 0.25 {
		t.Errorf("pre-compact snapshot Lookup = %v,%v, want 0.25", got, ok)
	}

	// The store keeps working after compaction: fresh inserts, overwrites
	// and a second Compact.
	s.Add(space.Config{20, 20}, 1)
	s.Add(space.Config{20, 20}, 2)
	if got, _ := s.Lookup(space.Config{20, 20}); got != 2 {
		t.Errorf("post-compact overwrite: got %v, want 2", got)
	}
	if d := s.Compact(); d != 1 {
		t.Errorf("second Compact dropped %d, want 1", d)
	}
	if s.Len() != len(cfgs)+1 {
		t.Errorf("final Len = %d, want %d", s.Len(), len(cfgs)+1)
	}
}

// TestCompactNoSupersededIsNoop checks the cheap path: a store without
// overwrites compacts to itself.
func TestCompactNoSupersededIsNoop(t *testing.T) {
	s := New()
	for i := 0; i < 50; i++ {
		s.Add(space.Config{i, -i}, float64(i))
	}
	if d := s.Compact(); d != 0 {
		t.Errorf("Compact dropped %d versions from an overwrite-free store", d)
	}
	if s.Versions() != 50 || s.Len() != 50 {
		t.Errorf("Versions/Len = %d/%d, want 50/50", s.Versions(), s.Len())
	}
}

package store

import (
	"fmt"
	"testing"

	"repro/internal/space"
)

// These tests pin the Entries contract: Entries() (and
// Snapshot.Entries()) exposes exactly one Entry per configuration — the
// latest value — at the position of the FIRST write of that
// configuration (overwrites keep the original sequence stamp; see
// builder.insertItem). Superseded versions stay in storage but
// must never leak through the API.

// entriesString renders an entry sequence for exact comparison.
func entriesString(es []Entry) string { return fmt.Sprint(es) }

// TestEntriesOverwriteWinnerOrder pins the ordering rule: overwriting a
// configuration keeps its ORIGINAL insertion position while exposing
// the new value, and the superseded value is gone from Entries()
// immediately. (The position rule is what lets
// WAL replay reconstruct the order: re-adding Entries() front to back
// reproduces both the values and the sequence stamps.)
func TestEntriesOverwriteWinnerOrder(t *testing.T) {
	s := New()
	a, b, c := space.Config{1, 1}, space.Config{2, 2}, space.Config{3, 3}
	s.Add(a, 10)
	s.Add(b, 20)
	s.Add(c, 30)
	s.Add(a, 11) // supersedes the first write of a, keeps its slot

	want := []Entry{{Config: a, Lambda: 11}, {Config: b, Lambda: 20}, {Config: c, Lambda: 30}}
	if got := s.Entries(); entriesString(got) != entriesString(want) {
		t.Fatalf("Entries after overwrite:\n got %v\nwant %v", got, want)
	}
	if s.Versions() != 4 {
		t.Fatalf("Versions = %d, want 4 (superseded version still stored)", s.Versions())
	}

}

// TestEntriesNeverExposeSuperseded walks a store through repeated
// overwrites (per-Add and bulk, including a duplicate inside one batch)
// and checks after every step that Entries() holds each configuration
// exactly once with its latest value — superseded versions are an
// internal storage detail that must never leak through the API.
func TestEntriesNeverExposeSuperseded(t *testing.T) {
	s := New()
	latest := map[string]float64{}
	key := func(c space.Config) string { return fmt.Sprint([]int(c)) }

	check := func(label string) {
		t.Helper()
		es := s.Entries()
		if len(es) != len(latest) {
			t.Fatalf("%s: Entries holds %d configs, want %d", label, len(es), len(latest))
		}
		seen := map[string]bool{}
		for _, e := range es {
			k := key(e.Config)
			if seen[k] {
				t.Fatalf("%s: config %v appears twice in Entries", label, e.Config)
			}
			seen[k] = true
			if want := latest[k]; e.Lambda != want {
				t.Fatalf("%s: Entries exposes %v for %v, latest write was %v", label, e.Lambda, e.Config, want)
			}
		}
	}

	for i := 0; i < 12; i++ {
		c := space.Config{i % 5, i % 3}
		s.Add(c, float64(i))
		latest[key(c)] = float64(i)
		check(fmt.Sprintf("after Add %d", i))
	}
	// A batch whose interior duplicates resolve to the LAST occurrence.
	batch := []Entry{
		{Config: space.Config{0, 0}, Lambda: 100},
		{Config: space.Config{9, 9}, Lambda: 101},
		{Config: space.Config{0, 0}, Lambda: 102},
	}
	s.AddBatch(batch)
	latest[key(space.Config{0, 0})] = 102
	latest[key(space.Config{9, 9})] = 101
	check("after AddBatch with interior duplicate")

	// Overwrites keep working after a bulk write.
	s.Add(space.Config{0, 0}, 200)
	latest[key(space.Config{0, 0})] = 200
	check("overwrite after AddBatch")
}

// TestSnapshotEntriesEpoch pins the snapshot side of the contract: a
// Snapshot captured before overwrites keeps answering Entries() at its
// own epoch, while a snapshot cut after them matches the live store
// exactly.
func TestSnapshotEntriesEpoch(t *testing.T) {
	s := New()
	for i := 0; i < 8; i++ {
		s.Add(space.Config{i}, float64(i))
	}
	old := s.Snapshot()
	oldEntries := entriesString(old.Entries())

	for i := 0; i < 8; i += 2 {
		s.Add(space.Config{i}, float64(i)+0.5) // supersede half
	}
	if entriesString(old.Entries()) != oldEntries {
		t.Fatal("pre-overwrite snapshot Entries changed when the live store was overwritten")
	}

	live := entriesString(s.Entries())
	post := s.Snapshot()
	if got := entriesString(post.Entries()); got != live {
		t.Fatalf("post-overwrite Snapshot.Entries diverges from Store.Entries:\n got %s\nwant %s", got, live)
	}
	if old.Len() != 8 || post.Len() != 8 || s.Len() != 8 {
		t.Fatalf("Len drifted: old %d post %d live %d, want 8", old.Len(), post.Len(), s.Len())
	}
	// The superseded values are reachable only through the old epoch.
	if v, ok := old.Lookup(space.Config{0}); !ok || v != 0 {
		t.Fatalf("old snapshot Lookup({0}) = %v,%v, want 0", v, ok)
	}
	if v, ok := post.Lookup(space.Config{0}); !ok || v != 0.5 {
		t.Fatalf("post snapshot Lookup({0}) = %v,%v, want 0.5", v, ok)
	}
}

package store

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

// TestAddBatch pins the bulk-write semantics: added counts, overwrite of
// both pre-existing and within-batch duplicates (last value wins at the
// first occurrence's insertion rank), and insertion order.
func TestAddBatch(t *testing.T) {
	s := New()
	if got := s.AddBatch(nil); got != 0 {
		t.Errorf("AddBatch(nil) = %d", got)
	}
	added := s.AddBatch([]Entry{
		{Config: space.Config{1, 1}, Lambda: 1},
		{Config: space.Config{2, 2}, Lambda: 2},
		{Config: space.Config{1, 1}, Lambda: 3}, // within-batch duplicate
	})
	if added != 2 {
		t.Errorf("added = %d, want 2", added)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if v, ok := s.Lookup(space.Config{1, 1}); !ok || v != 3 {
		t.Errorf("Lookup({1,1}) = %v, %v; want 3", v, ok)
	}
	// A second batch overwriting a pre-existing configuration.
	if added := s.AddBatch([]Entry{
		{Config: space.Config{2, 2}, Lambda: 9},
		{Config: space.Config{3, 3}, Lambda: 4},
	}); added != 1 {
		t.Errorf("second batch added = %d, want 1", added)
	}
	es := s.Entries()
	want := []Entry{
		{Config: space.Config{1, 1}, Lambda: 3},
		{Config: space.Config{2, 2}, Lambda: 9},
		{Config: space.Config{3, 3}, Lambda: 4},
	}
	if len(es) != len(want) {
		t.Fatalf("Entries = %+v", es)
	}
	for i := range want {
		if !es[i].Config.Equal(want[i].Config) || es[i].Lambda != want[i].Lambda {
			t.Errorf("Entries[%d] = %+v, want %+v", i, es[i], want[i])
		}
	}
}

// TestAddBatchClonesConfigs checks the bulk path does not alias caller
// slices, matching Add.
func TestAddBatchClonesConfigs(t *testing.T) {
	s := New()
	c := space.Config{4, 5}
	s.AddBatch([]Entry{{Config: c, Lambda: 1}})
	c[0] = 99
	if _, ok := s.Lookup(space.Config{4, 5}); !ok {
		t.Error("store contents aliased the batch's config slice")
	}
}

// TestAddBatchEquivalence is the bulk-path equivalence property: a store
// bulk-loaded in one AddBatch must be bit-identical — entries,
// neighbourhoods (values, distances, tie order) and snapshots — to a
// store fed the same input through per-call Add. The input deliberately
// contains duplicates so the overwrite path is exercised in both stores.
func TestAddBatchEquivalence(t *testing.T) {
	r := rng.New(21)
	const n = 3000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Config: randConfig(r, 3, -5, 15), Lambda: r.Float64()}
	}
	bulk := New()
	loop := New()
	bulkAdded := bulk.AddBatch(entries)
	loopAdded := 0
	for _, e := range entries {
		if loop.Add(e.Config, e.Lambda) {
			loopAdded++
		}
	}
	if bulkAdded != loopAdded || bulk.Len() != loop.Len() {
		t.Fatalf("added %d (Len %d) via batch, %d (Len %d) via loop",
			bulkAdded, bulk.Len(), loopAdded, loop.Len())
	}
	be, le := bulk.Entries(), loop.Entries()
	for i := range le {
		if !be[i].Config.Equal(le[i].Config) || be[i].Lambda != le[i].Lambda {
			t.Fatalf("Entries[%d] = %+v, want %+v", i, be[i], le[i])
		}
	}
	snapB, snapL := bulk.Snapshot(), loop.Snapshot()
	for q := 0; q < 30; q++ {
		w := randConfig(r, 3, -7, 17)
		for d := 1.0; d <= 5; d++ {
			ctx := fmt.Sprintf("w=%v d=%v", w, d)
			assertSameNeighborhood(t, ctx, bulk.Neighbors(w, d), loop.Neighbors(w, d))
			assertSameNeighborhood(t, "snapshot "+ctx, snapB.Neighbors(w, d), snapL.Neighbors(w, d))
		}
	}
}

// TestOverwriteInvisibleToSnapshot pins the epoch semantics of the
// versioned overwrite: a snapshot keeps reporting the value that was
// current when it was taken, through Lookup, Neighbors and Entries.
func TestOverwriteInvisibleToSnapshot(t *testing.T) {
	s := New()
	s.Add(space.Config{1, 2}, 1)
	s.Add(space.Config{3, 2}, 5)
	snap := s.Snapshot()
	s.Add(space.Config{1, 2}, 2) // overwrite after the snapshot
	if v, ok := s.Lookup(space.Config{1, 2}); !ok || v != 2 {
		t.Errorf("store Lookup = %v, %v; want 2", v, ok)
	}
	if v, ok := snap.Lookup(space.Config{1, 2}); !ok || v != 1 {
		t.Errorf("snapshot Lookup = %v, %v; want pre-overwrite 1", v, ok)
	}
	if snap.Len() != 2 {
		t.Errorf("snapshot Len = %d, want 2", snap.Len())
	}
	nb := snap.Neighbors(space.Config{1, 2}, 2)
	if nb.Len() != 2 || nb.Values[0] != 1 || nb.Values[1] != 5 {
		t.Errorf("snapshot Neighbors = %+v, want values [1 5]", nb.Values)
	}
	es := snap.Entries()
	if len(es) != 2 || es[0].Lambda != 1 {
		t.Errorf("snapshot Entries = %+v", es)
	}
}

// TestOverwriteConstantCost asserts that overwriting one configuration
// in a 10k-entry store allocates a constant handful of objects (the new
// version and the published view), not a copy of the store, as a
// copy-on-write scheme would (the whole entries slice and key map per
// overwrite).
func TestOverwriteConstantCost(t *testing.T) {
	s := New()
	r := rng.New(3)
	for s.Len() < 10000 {
		s.Add(randConfig(r, 3, 0, 30), r.Float64())
	}
	target := s.Entries()[1234].Config
	allocs := testing.AllocsPerRun(200, func() {
		s.Add(target, 1.5)
	})
	// One version entry, its cfg clone and coords, and one published
	// view — with slack for amortized growth of the backing array.
	if allocs > 16 {
		t.Errorf("overwrite on a 10k store allocates %.0f objects, want O(1)", allocs)
	}
	if s.Len() != 10000 {
		t.Errorf("Len drifted to %d after overwrites", s.Len())
	}
	if v, ok := s.Lookup(target); !ok || v != 1.5 {
		t.Errorf("Lookup after overwrite = %v, %v", v, ok)
	}
}

// TestConcurrentReadersDuringBulkLoad is the bulk-path race stress: 32
// reader goroutines hammer Entries/Lookup/Neighbors while one writer
// bulk-loads 20k distinct entries in chunks. Every observation must be a
// consistent prefix: the entries a reader sees are exactly the first k of
// the final insertion sequence, with k a multiple of the chunk size or
// the total (AddBatch publishes a batch atomically), values are never
// torn, and neighbourhoods only contain true values. Run with -race to
// validate the publication protocol.
func TestConcurrentReadersDuringBulkLoad(t *testing.T) {
	const readers = 32
	total, chunk := 20000, 1000
	if testing.Short() {
		total, chunk = 6000, 500
	}
	r := rng.New(42)
	entries := make([]Entry, 0, total)
	dedup := map[string]bool{}
	for len(entries) < total {
		c := space.Config{r.IntRange(0, 40), r.IntRange(0, 40), r.IntRange(0, 40)}
		if dedup[c.Key()] {
			continue
		}
		dedup[c.Key()] = true
		entries = append(entries, Entry{Config: c, Lambda: float64(len(entries))})
	}
	s := New()
	// Final ground truth: the insertion rank of every config.
	rank := make(map[string]int, total)
	for i, e := range entries {
		rank[e.Config.Key()] = i
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rr := rng.New(uint64(g) + 100)
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				es := s.Entries()
				if k := len(es); k%chunk != 0 && k != total {
					t.Errorf("observed %d entries, not a batch boundary (chunk %d, total %d)", k, chunk, total)
					return
				}
				for i, e := range es {
					ri, ok := rank[e.Config.Key()]
					if !ok {
						t.Errorf("observed unknown entry %v", e.Config)
						return
					}
					if ri != i {
						t.Errorf("not a prefix: Entries[%d] has rank %d", i, ri)
						return
					}
					if e.Lambda != float64(ri) {
						t.Errorf("torn value for %v: %v, want %d", e.Config, e.Lambda, ri)
						return
					}
				}
				// Anything already visible must stay visible with the
				// same value through the exact-match path.
				if len(es) > 0 {
					e := es[rr.Intn(len(es))]
					if v, ok := s.Lookup(e.Config); !ok || v != e.Lambda {
						t.Errorf("Lookup(%v) = %v, %v mid-load", e.Config, v, ok)
						return
					}
				}
				// Radius queries mid-load must only ever return true values.
				q := space.Config{rr.IntRange(0, 40), rr.IntRange(0, 40), rr.IntRange(0, 40)}
				nb := s.Neighbors(q, 3)
				for i := range nb.Values {
					c := make(space.Config, len(nb.Coords[i]))
					for j, f := range nb.Coords[i] {
						c[j] = int(f)
					}
					ri, ok := rank[c.Key()]
					if !ok || nb.Values[i] != float64(ri) {
						t.Errorf("neighbourhood of %v holds %v=%v, want rank %d (known %v)",
							q, c, nb.Values[i], ri, ok)
						return
					}
				}
			}
		}(g)
	}
	for off := 0; off < total; off += chunk {
		end := off + chunk
		if end > total {
			end = total
		}
		s.AddBatch(entries[off:end])
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	es := s.Entries()
	if len(es) != total {
		t.Fatalf("final Entries = %d, want %d", len(es), total)
	}
	for i, e := range es {
		if rank[e.Config.Key()] != i || e.Lambda != float64(i) {
			t.Fatalf("final Entries[%d] = %+v", i, e)
		}
	}
}

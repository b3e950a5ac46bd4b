package store

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/store/wal"
	"repro/internal/store/wal/faultfs"
)

// buildMixedWorkload drives the same deterministic mix of single Adds,
// AddBatches and overwrites into dst, mirroring it into mem
// (an in-memory reference) when non-nil.
func buildMixedWorkload(dst, mem *Store, seed uint64, rounds int) {
	r := rng.New(seed)
	var history []space.Config
	apply := func(f func(s *Store)) {
		f(dst)
		if mem != nil {
			f(mem)
		}
	}
	for i := 0; i < rounds; i++ {
		switch {
		case i%7 == 3 && len(history) > 0: // overwrite an old config
			c := history[r.Uint64()%uint64(len(history))]
			lam := r.Float64()
			apply(func(s *Store) { s.Add(c, lam) })
		case i%5 == 2: // batch with an interior duplicate
			batch := make([]Entry, 0, 9)
			for j := 0; j < 8; j++ {
				c := randConfig(r, 4, 0, 20)
				batch = append(batch, Entry{Config: c, Lambda: r.Float64()})
				history = append(history, c)
			}
			batch = append(batch, Entry{Config: batch[0].Config, Lambda: r.Float64()})
			apply(func(s *Store) { s.AddBatch(batch) })
		default:
			c := randConfig(r, 4, 0, 20)
			lam := r.Float64()
			history = append(history, c)
			apply(func(s *Store) { s.Add(c, lam) })
		}
	}
}

// assertStoresIdentical requires a and b to be indistinguishable:
// same entries in the same insertion order, same lookups, and
// bit-identical radius / k-nearest query results across probes.
func assertStoresIdentical(t *testing.T, label string, a, b *Store) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: Len %d vs %d", label, a.Len(), b.Len())
	}
	ea, eb := a.Entries(), b.Entries()
	if len(ea) != len(eb) {
		t.Fatalf("%s: Entries %d vs %d", label, len(ea), len(eb))
	}
	for i := range ea {
		if !ea[i].Config.Equal(eb[i].Config) || ea[i].Lambda != eb[i].Lambda {
			t.Fatalf("%s: entry %d: %v=%v vs %v=%v", label, i, ea[i].Config, ea[i].Lambda, eb[i].Config, eb[i].Lambda)
		}
		va, oka := a.Lookup(ea[i].Config)
		vb, okb := b.Lookup(ea[i].Config)
		if oka != okb || va != vb {
			t.Fatalf("%s: Lookup(%v): (%v,%v) vs (%v,%v)", label, ea[i].Config, va, oka, vb, okb)
		}
	}
	r := rng.New(99)
	for q := 0; q < 32; q++ {
		w := randConfig(r, 4, 0, 20)
		for _, d := range []float64{2, 5} {
			na, nb := a.Neighbors(w, d), b.Neighbors(w, d)
			assertSameNeighborhood(t, label+" Neighbors", na, nb)
			ka, kb := a.NearestK(w, d, 6), b.NearestK(w, d, 6)
			assertSameNeighborhood(t, label+" NearestK", ka, kb)
		}
	}
}

func openDurable(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// TestDurableReopenEquivalence is the core recovery property: a durable
// store that lived through adds, batches (with interior duplicates)
// and overwrites recovers — after a clean close — to a
// store bit-identical to an in-memory one fed the same operations, and
// survives a second generation of writes and reopens.
func TestDurableReopenEquivalence(t *testing.T) {
	dir := t.TempDir()
	mem := New()
	s := openDurable(t, dir)
	buildMixedWorkload(s, mem, 7, 120)
	assertStoresIdentical(t, "live durable vs mem", s, mem)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openDurable(t, dir)
	assertStoresIdentical(t, "reopened vs mem", s2, mem)

	// Keep writing after recovery, close, reopen again.
	buildMixedWorkload(s2, mem, 8, 60)
	if err := s2.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	s3 := openDurable(t, dir)
	defer s3.Close()
	assertStoresIdentical(t, "second reopen vs mem", s3, mem)
}

// TestDurableConcurrentReopen pins "log order = sequence order" under
// concurrent writers: eight goroutines mix Adds of fresh configurations,
// AddBatches and overwrites of a shared pool on one durable store, and
// the store recovered from its log must be identical to the one that
// wrote it — insertion order and overwrite winners included. Recovery
// replays the log in record order, so a write whose record and
// sequence stamp were taken in different orders would flip them.
func TestDurableConcurrentReopen(t *testing.T) {
	const goroutines, ops = 8, 300
	dir := t.TempDir()
	s, err := Open(DurabilityOptions{Dir: dir, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	shared := make([]space.Config, 16)
	for i := range shared {
		shared[i] = space.Config{i, 20 - i, i % 5, 10}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g) + 1)
			for i := 0; i < ops; i++ {
				switch i % 4 {
				case 0: // overwrite a shared configuration
					s.Add(shared[r.Intn(len(shared))], r.Float64())
				case 1: // batch mixing fresh and shared configurations
					s.AddBatch([]Entry{
						{Config: randConfig(r, 4, 0, 20), Lambda: r.Float64()},
						{Config: shared[r.Intn(len(shared))], Lambda: r.Float64()},
						{Config: randConfig(r, 4, 0, 20), Lambda: r.Float64()},
					})
				default:
					s.Add(randConfig(r, 4, 0, 20), r.Float64())
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re := openDurable(t, dir)
	defer re.Close()
	assertStoresIdentical(t, "reopened vs writer", re, s)
	if re.Versions() != s.Versions() {
		t.Fatalf("Versions %d after reopen, want %d", re.Versions(), s.Versions())
	}
}

// TestDurableFailStop: once the device fails, no later write is applied
// or acknowledged, and Err explains why.
func TestDurableFailStop(t *testing.T) {
	fs := faultfs.New()
	s, err := Open(DurabilityOptions{Dir: "state", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Add(space.Config{1, 1}, 1) {
		t.Fatal("healthy add failed")
	}
	fs.LimitWrites(0)
	if s.Add(space.Config{2, 2}, 2) {
		t.Fatal("add acknowledged after device failure")
	}
	if s.Err() == nil || !errors.Is(s.Err(), faultfs.ErrInjected) {
		t.Fatalf("Err = %v, want the injected fault", s.Err())
	}
	fs.ClearFaults() // device recovers, but the store must stay fail-stop
	if s.AddBatch([]Entry{{Config: space.Config{3, 3}, Lambda: 3}}) != 0 {
		t.Fatal("batch acknowledged on a broken store")
	}
	if s.Len() != 1 {
		t.Fatalf("Len %d after failed writes, want 1", s.Len())
	}
	// Reads keep working.
	if v, ok := s.Lookup(space.Config{1, 1}); !ok || v != 1 {
		t.Fatalf("Lookup on broken store: %v, %v", v, ok)
	}
	s.Close()
}

// TestDurableOpenRefusesCorruption: interior damage to an on-disk
// segment must fail Open with wal.ErrCorrupt, not come back as data.
func TestDurableOpenRefusesCorruption(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	for i := 0; i < 10; i++ {
		s.Add(space.Config{i, i}, float64(i))
	}
	s.Close()
	seg := filepath.Join(dir, "wal-0000000000000001.seg")
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the first record's payload: interior corruption,
	// because nine more records follow it.
	if _, err := f.WriteAt([]byte{0xFF}, 40); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(DurabilityOptions{Dir: dir}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("Open over corrupt segment: %v, want wal.ErrCorrupt", err)
	}
}

// TestDurableConstructorContract: New is the in-memory store, whose
// durability surface is inert (no error, Close is a no-op and writes
// keep working after it), and Open is the durable one, whose writes
// stop at Close.
func TestDurableConstructorContract(t *testing.T) {
	s := New()
	if s.Err() != nil || s.Close() != nil || s.Close() != nil {
		t.Error("in-memory store: durable surface should be inert")
	}
	if !s.Add(space.Config{1}, 1) {
		t.Error("in-memory store refused a write after Close")
	}
	d := openDurable(t, t.TempDir())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d.Add(space.Config{1}, 1) {
		t.Error("durable store acknowledged a write after Close")
	}
}

// TestAllocsDurableAddBatch gates the WAL write path: group commit must
// add only O(1) allocations per batch on top of the in-memory bulk
// path, independent of batch size (reused encode buffer + record
// scratch).
func TestAllocsDurableAddBatch(t *testing.T) {
	skipUnderRace(t)
	r := rng.New(5)
	batch := make([]Entry, 1000)
	for i := range batch {
		batch[i] = Entry{Config: randConfig(r, 4, 0, 25), Lambda: r.Float64()}
	}
	mem := New()
	memAllocs := testing.AllocsPerRun(10, func() { mem.AddBatch(batch) })

	// SyncNone keeps the gate off fsync latency; the sync itself
	// allocates nothing.
	s, err := Open(DurabilityOptions{Dir: t.TempDir(), Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.AddBatch(batch) // warm the encode scratch
	durAllocs := testing.AllocsPerRun(10, func() { s.AddBatch(batch) })
	if durAllocs > memAllocs+2 {
		t.Errorf("durable AddBatch allocates %.1f per 1000-entry batch vs %.1f in-memory; want O(1) overhead", durAllocs, memAllocs)
	}
}

package store

import (
	"sync"
	"sync/atomic"

	"repro/internal/space"
	"repro/internal/store/wal"
)

// Entry is one simulated configuration and its measured metric value.
type Entry struct {
	Config space.Config
	Lambda float64
}

// Store accumulates simulated configurations. Interpolated configurations
// are deliberately NOT stored: "If the configuration is interpolated, it
// is not used for kriging other configurations" (paper, §III-B.1).
//
// A Store is safe for concurrent use by multiple goroutines; see the
// package documentation for the builder/epoch write scheme.
type Store struct {
	state atomic.Pointer[view] // the published view, read lock-free

	// mu serialises writers. It guards the builder and the sequence
	// counter and, on a durable store, the log and its sticky state: a
	// write is logged and applied under one hold, so the log's record
	// order matches the sequence stamps the entries got in memory —
	// recovery replays the log in order, so the two orders must agree or
	// overwrite winners could flip on restart.
	mu     sync.Mutex
	b      builder
	seq    uint64       // insertion stamp of the latest entry
	log    *wal.Log     // durable backend; nil for the in-memory store
	walErr error        // sticky durability failure; see Err
	closed bool         // Close called
	recBuf []wal.Record // encode scratch reused across writes
}

// New creates an empty in-memory store. Neighbour queries measure the
// paper's L1 distance. Durable stores are created with Open.
func New() *Store {
	s := new(Store)
	s.state.Store(emptyView)
	return s
}

// Len returns the number of simulated configurations (Nsim).
func (s *Store) Len() int { return s.state.Load().live }

// HashConfig returns the store's key hash of a configuration — the same
// allocation-free hashing that keys exact lookups. The evaluator's
// single-flight table keys its in-flight simulations with it so both
// layers agree on configuration identity.
func HashConfig(c space.Config) uint64 { return hashConfig(c) }

// Add records a simulated configuration and its metric value. Re-adding
// an existing configuration overwrites its value and reports false.
//
// Inserts are amortized O(1): the writer mutates the private builder
// (append-only entries, incremental key table) under the writer lock
// and publishes a fresh immutable view, instead of copying the store.
// Lock-free readers keep whatever view they loaded.
//
// On a durable store the entry is logged (and, under SyncBatch, fsynced)
// before it is applied; if durability fails the entry is NOT added,
// Add reports false, and the failure is sticky via Err.
func (s *Store) Add(c space.Config, lambda float64) (added bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		s.recBuf = append(s.recBuf[:0], wal.Record{Config: []int(c), Lambda: lambda})
		if !s.appendLog(s.recBuf, "add") {
			return false
		}
	}
	s.seq++
	added = s.b.insert(c, lambda, s.seq)
	s.state.Store(s.b.publish())
	return added
}

// AddBatch records a batch of simulated configurations with ONE view
// publication, the bulk-load path for replayed traces, restored stores
// and batch-evaluation commits. Entries are stamped in input order, so
// the resulting store is indistinguishable from calling Add in a loop
// (same sequence, same overwrite semantics — a configuration repeated
// inside the batch keeps the last value at the first occurrence's
// insertion rank). It returns the number of entries that were new
// configurations.
//
// Concurrent readers are never blocked and observe either the pre-batch
// or the post-batch view: a batch becomes visible all at once.
//
// On a durable store the batch is group-committed: ONE log record and
// (under SyncBatch) ONE fsync cover the whole batch before it is
// applied, so a batch survives a crash all-or-nothing. If durability
// fails the batch is NOT applied, AddBatch reports 0, and the failure
// is sticky via Err.
func (s *Store) AddBatch(entries []Entry) (added int) {
	if len(entries) == 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil && !s.appendLog(s.records(entries), "batch") {
		return 0
	}
	return s.applyBatch(entries)
}

// applyBatch inserts a batch in input order and publishes one view. The
// caller holds mu, or owns the store outright (recovery in Open).
//
// Item records, configuration copies and precomputed coordinates are
// carved out of batch-level slabs (three allocations per batch instead
// of three per entry); the stored entries live for the life of the
// store anyway, so slab sharing costs nothing.
func (s *Store) applyBatch(entries []Entry) (added int) {
	total := 0
	for _, e := range entries {
		total += len(e.Config)
	}
	slab := make([]item, len(entries))
	ints := make([]int, total)
	floats := make([]float64, total)
	s.b.reserve(len(entries))
	for i, src := range entries {
		nv := len(src.Config)
		cfg := space.Config(ints[:nv:nv])
		coords := floats[:nv:nv]
		ints, floats = ints[nv:], floats[nv:]
		for j, v := range src.Config {
			cfg[j] = v
			coords[j] = float64(v)
		}
		e := &slab[i]
		e.cfg = cfg
		e.coords = coords
		e.lambda = src.Lambda
		e.hash = hashConfig(cfg)
		s.seq++
		if s.b.insertItem(e, s.seq) {
			added++
		}
	}
	s.state.Store(s.b.publish())
	return added
}

// Lookup returns the stored value for an exact configuration match.
func (s *Store) Lookup(c space.Config) (float64, bool) {
	return s.state.Load().lookup(c)
}

// Entries returns a copy of the stored entries in insertion order.
func (s *Store) Entries() []Entry { return s.state.Load().entriesCopy() }

// Neighbors collects every simulated configuration within distance <= d of
// w (lines 7-16 of Algorithms 1-2), oldest-first, by the pseudo-code's
// linear scan over every stored entry. It reads the published view
// lock-free, so it never blocks concurrent writers (or vice versa). It
// is the allocating wrapper over NeighborsInto.
func (s *Store) Neighbors(w space.Config, d float64) *Neighborhood {
	nb := s.NeighborsInto(new(Neighborhood), w, d)
	nb.releaseScratch()
	return nb
}

// NeighborsInto is Neighbors into a caller-owned buffer: the result
// slices and the query's internal scratch (candidate hits) reuse buf's
// backing arrays, so a warm buffer answers radius queries without heap
// allocations. buf must not be used by concurrent queries; the returned
// pointer is buf.
func (s *Store) NeighborsInto(buf *Neighborhood, w space.Config, d float64) *Neighborhood {
	return s.state.Load().neighborsInto(buf, w, d)
}

// NearestK returns the k closest simulated configurations within
// distance d of w, ordered by (distance, insertion sequence) with ties
// oldest-first — identical to Neighbors(w, d).NearestK(k). When more
// than k entries are in range, the same scan sorts its hits by distance
// and keeps the first k. k <= 0 means no cap.
func (s *Store) NearestK(w space.Config, d float64, k int) *Neighborhood {
	nb := s.NearestKInto(new(Neighborhood), w, d, k)
	nb.releaseScratch()
	return nb
}

// NearestKInto is NearestK into a caller-owned buffer, allocation-free
// once the buffer is warm.
func (s *Store) NearestKInto(buf *Neighborhood, w space.Config, d float64, k int) *Neighborhood {
	return s.state.Load().nearestKInto(buf, w, d, k)
}

// Snapshot freezes the current contents. The snapshot is immutable: later
// Adds to the store — including overwrites of configurations it contains —
// are invisible to it, at zero copying cost.
func (s *Store) Snapshot() Snapshot {
	return Snapshot{v: s.state.Load()}
}

// Versions returns the number of entry versions held in memory,
// including the superseded versions that overwrites append: re-adding a
// configuration appends a new version in O(1) instead of replacing the
// old one in place. Versions() == Len() when every stored configuration
// was added exactly once.
func (s *Store) Versions() int { return len(s.state.Load().entries) }

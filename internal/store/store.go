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
// package documentation for the sharding and builder/epoch write scheme.
type Store struct {
	shards [DefaultShardCount]shard
	seq    atomic.Uint64 // global insertion stamp
	count  atomic.Int64  // live entry count (Len)

	// Durable backend (nil for the in-memory store). walMu serialises
	// writers so the log's record order matches the sequence stamps the
	// entries got in memory — recovery replays the log in order, so the
	// two orders must agree or overwrite winners could flip on restart.
	log    *wal.Log
	walMu  sync.Mutex
	walErr error        // sticky durability failure; see Err
	closed bool         // Close called
	recBuf []wal.Record // encode scratch reused across batches
}

// New creates an empty in-memory store. Neighbour queries measure the
// paper's L1 distance. Durable stores are created with Open.
func New() *Store {
	s := new(Store)
	for i := range s.shards {
		s.shards[i].state.Store(emptyShardState)
	}
	return s
}

// Len returns the number of simulated configurations (Nsim).
func (s *Store) Len() int { return int(s.count.Load()) }

// HashConfig returns the store's key hash of a configuration — the same
// allocation-free hashing that routes shard inserts and exact lookups.
// The evaluator's single-flight table keys its in-flight simulations
// with it so both layers agree on configuration identity.
func HashConfig(c space.Config) uint64 { return hashConfig(c) }

// Add records a simulated configuration and its metric value. Re-adding
// an existing configuration overwrites its value and reports false.
//
// Inserts are amortized O(1): the shard's writer mutates its private
// builder (append-only entries, incremental key table) under the
// shard lock and publishes a fresh immutable view, instead of copying
// the shard. Lock-free readers keep whatever view they loaded.
//
// On a durable store the entry is logged (and, under SyncBatch, fsynced)
// before it is applied; if durability fails the entry is NOT added,
// Add reports false, and the failure is sticky via Err.
func (s *Store) Add(c space.Config, lambda float64) (added bool) {
	if s.log != nil {
		return s.addDurable(c, lambda)
	}
	return s.addMem(c, lambda)
}

func (s *Store) addMem(c space.Config, lambda float64) (added bool) {
	hash := hashConfig(c)
	sh := &s.shards[hash&shardMask]
	sh.mu.Lock()
	added = sh.b.insert(hash, c, lambda, s.seq.Add(1))
	sh.state.Store(sh.b.publish())
	sh.mu.Unlock()
	if added {
		s.count.Add(1)
	}
	return added
}

// AddBatch records a batch of simulated configurations with ONE view
// publication per touched shard, the bulk-load path for replayed traces,
// restored stores and batch-evaluation commits. Entries are stamped in
// input order, so the resulting store is indistinguishable from calling
// Add in a loop (same global sequence, same overwrite semantics — a
// configuration repeated inside the batch keeps the last value at the
// first occurrence's insertion rank). It returns the number of entries
// that were new configurations.
//
// Entry records, configuration copies and precomputed coordinates are
// carved out of batch-level slabs (three allocations per batch instead
// of three per entry); the stored entries live for the life of the
// store anyway, so slab sharing costs nothing.
//
// Concurrent readers are never blocked and observe, per shard, either
// the pre-batch view or the post-batch view — a consistent prefix of
// that shard's final insertion sequence, never a torn intermediate.
//
// On a durable store the batch is group-committed: ONE log record and
// (under SyncBatch) ONE fsync cover the whole batch before it is
// applied, so a batch survives a crash all-or-nothing. If durability
// fails the batch is NOT applied, AddBatch reports 0, and the failure
// is sticky via Err.
func (s *Store) AddBatch(entries []Entry) (added int) {
	if s.log != nil {
		return s.addBatchDurable(entries)
	}
	return s.addBatchMem(entries)
}

func (s *Store) addBatchMem(entries []Entry) (added int) {
	if len(entries) == 0 {
		return 0
	}
	type pending struct {
		hash, seq uint64
		idx       int
	}
	// Stamp global sequence numbers in input order and group per shard
	// with a counting sort (stable, so per-shard input order survives).
	ps := make([]pending, len(entries))
	counts := make([]int, len(s.shards)+1)
	for i, e := range entries {
		h := hashConfig(e.Config)
		ps[i] = pending{hash: h, seq: s.seq.Add(1), idx: i}
		counts[(h&shardMask)+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	ordered := make([]pending, len(entries))
	fill := append([]int(nil), counts[:len(s.shards)]...)
	total := 0
	for _, p := range ps {
		si := p.hash & shardMask
		ordered[fill[si]] = p
		fill[si]++
		total += len(entries[p.idx].Config)
	}
	// Batch-level slabs: entry records plus one backing array each for
	// the cloned configurations and their float coordinates, carved
	// sequentially as the per-shard segments are inserted.
	slab := make([]shardEntry, len(entries))
	ints := make([]int, total)
	floats := make([]float64, total)
	for si := range s.shards {
		seg := ordered[counts[si]:counts[si+1]]
		if len(seg) == 0 {
			continue
		}
		sh := &s.shards[si]
		sh.mu.Lock()
		sh.b.reserve(len(seg))
		for _, p := range seg {
			src := entries[p.idx]
			nv := len(src.Config)
			cfg := space.Config(ints[:nv:nv])
			coords := floats[:nv:nv]
			ints, floats = ints[nv:], floats[nv:]
			for j, v := range src.Config {
				cfg[j] = v
				coords[j] = float64(v)
			}
			e := &slab[0]
			slab = slab[1:]
			e.cfg = cfg
			e.coords = coords
			e.lambda = src.Lambda
			e.hash = p.hash
			if sh.b.insertEntry(e, p.seq) {
				added++
			}
		}
		sh.state.Store(sh.b.publish())
		sh.mu.Unlock()
	}
	s.count.Add(int64(added))
	return added
}

// Lookup returns the stored value for an exact configuration match.
func (s *Store) Lookup(c space.Config) (float64, bool) {
	hash := hashConfig(c)
	return s.shards[hash&shardMask].state.Load().lookup(hash, c)
}

// loadStates captures the current state of every shard without locking.
func (s *Store) loadStates() []*shardState {
	states := make([]*shardState, len(s.shards))
	for i := range s.shards {
		states[i] = s.shards[i].state.Load()
	}
	return states
}

// Entries returns a copy of the stored entries in insertion order.
func (s *Store) Entries() []Entry {
	return entriesStates(s.loadStates())
}

// Neighbors collects every simulated configuration within distance <= d of
// w (lines 7-16 of Algorithms 1-2), oldest-first, by the pseudo-code's
// linear scan over every stored entry. It reads the shard states
// lock-free, so it never blocks concurrent writers (or vice versa). It is
// the allocating wrapper over NeighborsInto.
func (s *Store) Neighbors(w space.Config, d float64) *Neighborhood {
	nb := s.NeighborsInto(new(Neighborhood), w, d)
	nb.releaseScratch()
	return nb
}

// NeighborsInto is Neighbors into a caller-owned buffer: the result
// slices and the query's internal scratch (candidate hits, shard-state
// capture) reuse buf's backing arrays, so a warm buffer
// answers radius queries without heap allocations. buf must not be used
// by concurrent queries; the returned pointer is buf.
func (s *Store) NeighborsInto(buf *Neighborhood, w space.Config, d float64) *Neighborhood {
	return neighborsStatesInto(buf, s.loadStatesInto(buf), w, d)
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
	return nearestKStatesInto(buf, s.loadStatesInto(buf), w, d, k)
}

// loadStatesInto captures the current shard states into the buffer's
// scratch, avoiding the per-query slice allocation of loadStates.
func (s *Store) loadStatesInto(buf *Neighborhood) []*shardState {
	states := buf.q.states[:0]
	if cap(states) < len(s.shards) {
		states = make([]*shardState, 0, len(s.shards))
	}
	for i := range s.shards {
		states = append(states, s.shards[i].state.Load())
	}
	buf.q.states = states
	return states
}

// Snapshot freezes the current contents. The snapshot is immutable: later
// Adds to the store — including overwrites of configurations it contains —
// are invisible to it, at zero copying cost.
func (s *Store) Snapshot() Snapshot {
	return Snapshot{states: s.loadStates()}
}

// Versions returns the number of entry versions held in memory,
// including the superseded versions that overwrites append: re-adding a
// configuration appends a new version in O(1) instead of replacing the
// old one in place. Versions() == Len() when every stored configuration
// was added exactly once.
func (s *Store) Versions() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.b.entries)
		sh.mu.Unlock()
	}
	return n
}

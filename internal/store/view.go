package store

import (
	"sort"
	"sync/atomic"

	"repro/internal/fnv1a"
	"repro/internal/space"
)

// item is one stored configuration version. The float coordinates are
// precomputed at insertion so radius scans hand the kriging support out
// without per-query conversion or allocation; the coordinate sum lets the
// scan reject most entries without their L1 distance; the sequence
// number is the insertion order, which differs from the append position
// once a configuration has been overwritten.
//
// Items are immutable after publication with one exception, replacedBy,
// which is why that field alone is atomic. Every other field is written
// exactly once, before the item becomes reachable from any atomic slot
// or published view, so lock-free readers that arrive through an atomic
// load observe it fully initialised.
type item struct {
	cfg    space.Config
	sum    int // Σ cfg, the scan's lower bound on L1 (see collect)
	coords []float64
	lambda float64
	hash   uint64 // hashConfig(cfg), kept for table regrows
	seq    uint64 // insertion stamp (overwrites keep the original)
	pos    int32  // append position in the store
	// prevVersion links to the item this one overwrote (same cfg, same
	// seq). Readers whose view predates this version walk the chain back
	// to the version that was current at their epoch.
	prevVersion *item
	// replacedBy holds pos+1 of the item that overwrote this one (0 =
	// still current). A view of n items treats the item as live unless
	// its replacement is itself inside the view (replacedBy <= n).
	replacedBy atomic.Int32
}

// live reports whether e is the current version of its configuration in
// a view containing n items.
func (e *item) live(n int) bool {
	rb := e.replacedBy.Load()
	return rb == 0 || int(rb) > n
}

// view is an immutable view of the store, published atomically after
// every write (once per AddBatch). The entries slice is a prefix of the
// builder's append-only backing array: later appends write beyond its
// length, never inside it, so the view stays frozen at zero copying
// cost. The key table is shared with newer views — its slots only ever
// gain items, which readers filter out by position — so a view is
// pinned entirely by its entries length (its epoch).
type view struct {
	entries []*item // visible prefix, append order
	keys    *table  // config -> newest version
	live    int     // distinct configurations in this view
}

var emptyView = &view{}

// lookup resolves an exact configuration match within the view.
func (v *view) lookup(c space.Config) (float64, bool) {
	t := v.keys
	if t == nil {
		return 0, false
	}
	hash := hashConfig(c)
	n := len(v.entries)
	for i := t.start(hash); ; i = (i + 1) & t.mask {
		e := t.slots[i].Load()
		if e == nil {
			return 0, false
		}
		if e.hash != hash || !e.cfg.Equal(c) {
			continue // different config probing the same slot
		}
		// The slot holds the newest version; rewind to the newest one
		// this view contains.
		for e != nil && int(e.pos) >= n {
			e = e.prevVersion
		}
		if e == nil {
			return 0, false
		}
		return e.lambda, true
	}
}

// builder is the private mutable state of the store, guarded by the
// writer mutex. It appends items with capacity doubling and updates the
// key table incrementally, so an insert is amortized O(1); the immutable
// views it publishes share all of that structure.
type builder struct {
	entries []*item
	keys    *table
	live    int
}

// reserve pre-sizes the builder for n further inserts: the entry backing
// array and the key table grow once, up front, instead of stepwise
// inside the batch loop. Published views are unaffected — they pin their
// own (old) backing arrays, exactly as with append-driven growth.
func (b *builder) reserve(n int) {
	if need := len(b.entries) + n; cap(b.entries) < need {
		grown := make([]*item, len(b.entries), need)
		copy(grown, b.entries)
		b.entries = grown
	}
	if b.keys == nil {
		b.keys = newTable(tableSizeFor(b.live + n))
	} else if b.keys.overloaded(b.live + n) {
		b.keys = b.keys.regrowTo(tableSizeFor(b.live + n))
	}
}

// insert records (cfg, lambda) in the builder without publishing. A new
// configuration consumes seq; re-adding an existing one appends a
// replacement version that keeps the original sequence stamp (so the
// insertion order is stable) and reports added=false.
func (b *builder) insert(cfg space.Config, lambda float64, seq uint64) (added bool) {
	c := cfg.Clone()
	return b.insertItem(&item{
		cfg:    c,
		coords: c.Floats(),
		lambda: lambda,
		hash:   hashConfig(c),
	}, seq)
}

// insertItem is insert for a caller-allocated item whose cfg, coords,
// lambda and hash are already set (cfg and coords owned by the store
// from here on) — the bulk path carves items out of per-batch slabs
// instead of allocating three objects per result. The coordinate sum,
// position, sequence and the version link are filled here.
func (b *builder) insertItem(e *item, seq uint64) (added bool) {
	if b.keys == nil {
		b.keys = newTable(minTableSize)
	}
	e.sum = coordSum(e.cfg)
	prev := b.keys.findConfig(e.hash, e.cfg)
	e.pos = int32(len(b.entries))
	if prev != nil {
		e.seq = prev.seq
		e.prevVersion = prev
	} else {
		e.seq = seq
		if b.keys.overloaded(b.live + 1) {
			b.keys = b.keys.regrow()
		}
		b.live++
	}
	// Publication order matters for lock-free readers: every plain field
	// of e (including its version link) must be complete before the
	// key-table store makes it reachable.
	b.entries = append(b.entries, e)
	b.keys.storeConfig(e.hash, e)
	if prev != nil {
		// Views published from here on contain e, so they must see its
		// predecessor as superseded; older views filter the mark out
		// because e.pos lies beyond their epoch.
		prev.replacedBy.Store(e.pos + 1)
	}
	return prev == nil
}

// publish captures the builder as an immutable view.
func (b *builder) publish() *view {
	return &view{
		entries: b.entries,
		keys:    b.keys,
		live:    b.live,
	}
}

// hashConfig hashes a configuration for key probing, allocation-free
// (unlike hashing cfg.Key()).
func hashConfig(c space.Config) uint64 {
	h := fnv1a.Offset
	for _, v := range c {
		h = fnv1a.Mix(h, uint64(int64(v)))
	}
	return h
}

// neighborsInto answers the radius query into the caller's buffer,
// reusing its slices and collection scratch (allocation-free once warm).
// Overwrites append versions out of insertion order, so the sequence
// sort restores it; downstream tie-breaking — NearestK keeps ties
// oldest-first — then matches the paper's insertion-ordered Wsim.
func (v *view) neighborsInto(buf *Neighborhood, w space.Config, d float64) *Neighborhood {
	v.collect(buf, w, d)
	return finishHitsInto(buf)
}

// nearestKInto collects the k nearest entries within distance d into the
// caller's buffer — exactly Neighbors(w, d).NearestK(k), ordering
// contract included (insertion order when everything fits, (distance,
// sequence) with ties oldest-first when truncated) — on the buffer's
// scratch. k <= 0 degrades to the plain radius query.
func (v *view) nearestKInto(buf *Neighborhood, w space.Config, d float64, k int) *Neighborhood {
	if k <= 0 {
		return v.neighborsInto(buf, w, d)
	}
	v.collect(buf, w, d)
	return finishNearestKInto(buf, k)
}

// collect gathers the in-range hits into the buffer's scratch: the
// paper's scan over every stored entry, pruned by a lower bound. For
// integer configurations |Σa − Σb| <= L1(a, b), so an entry whose
// coordinate sum differs from the query's by more than d cannot be in
// range and is skipped before its liveness check and its L1 distance —
// a filter without false dismissals (Agrawal, Faloutsos and Swami,
// FODO 1993), so the hits are exactly those of the full scan.
func (v *view) collect(buf *Neighborhood, w space.Config, d float64) {
	q := &buf.q
	q.hits = q.hits[:0]
	ws := coordSum(w)
	n := len(v.entries)
	for _, e := range v.entries {
		if len(e.cfg) != len(w) {
			// space.L1's contract, kept for entries the filter skips.
			panic("space: L1 on configs of different dimension")
		}
		if gap := float64(e.sum - ws); gap > d || -gap > d {
			continue
		}
		if !e.live(n) {
			continue
		}
		dist := float64(space.L1(w, e.cfg))
		if dist <= d {
			q.hits = append(q.hits, hit{e: e, dist: dist})
		}
	}
}

// coordSum returns Σ c, the total word length of a configuration.
func coordSum(c space.Config) int {
	s := 0
	for _, v := range c {
		s += v
	}
	return s
}

// entriesCopy returns the view's live entries in insertion order.
func (v *view) entriesCopy() []Entry {
	n := len(v.entries)
	live := make([]*item, 0, v.live)
	for _, e := range v.entries {
		if e.live(n) {
			live = append(live, e)
		}
	}
	sort.Slice(live, func(a, b int) bool { return live[a].seq < live[b].seq })
	out := make([]Entry, len(live))
	for i, e := range live {
		out[i] = Entry{Config: e.cfg, Lambda: e.lambda}
	}
	return out
}

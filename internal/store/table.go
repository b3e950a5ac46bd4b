package store

import (
	"sync/atomic"

	"repro/internal/space"
)

// minTableSize is the initial slot count of a key table.
const minTableSize = 8

// table is an insert-only open-addressing hash index shared by every
// view published since its creation (a regrow starts a new table; older
// views keep the smaller one, which already covers every entry they can
// see). Slots are written only under the store's writer lock and probed by
// readers with atomic loads: a reader that observes an entry inserted
// after its view was published filters it out by position, so the shared
// mutation is invisible. Slots are never cleared, which keeps reader
// probes terminating (the writer regrows before the table can fill).
//
// It is the store's key index: one slot per distinct configuration,
// holding its newest version.
type table struct {
	mask  uint64
	slots []atomic.Pointer[item]
}

func newTable(size int) *table {
	return &table{mask: uint64(size - 1), slots: make([]atomic.Pointer[item], size)}
}

// start maps a hash to its initial probe slot. The raw FNV hash cannot
// be masked as-is: FNV-1a's multiply carries only upward, so its low k
// bits depend only on the low k bits of each coordinate, and
// configurations that agree modulo 2^k would share a probe start. A
// 64-bit finalizer folds the high bits down first.
func (t *table) start(hash uint64) uint64 {
	hash ^= hash >> 33
	hash *= 0xff51afd7ed558ccd
	hash ^= hash >> 33
	return hash & t.mask
}

// overloaded reports whether the table must regrow before holding
// occupied+... entries (load factor capped at 2/3 so probes stay short
// and never cycle).
func (t *table) overloaded(occupied int) bool {
	return uint64(occupied)*3 > (t.mask+1)*2
}

// regrow reinserts every slot into a table twice the size. Older views
// keep the previous table untouched.
func (t *table) regrow() *table {
	return t.regrowTo(int(t.mask+1) * 2)
}

// regrowTo is regrow to an explicit power-of-two size (at least double),
// the bulk path's way of sizing one regrow for a whole batch.
func (t *table) regrowTo(size int) *table {
	if min := int(t.mask+1) * 2; size < min {
		size = min
	}
	nt := newTable(size)
	for i := range t.slots {
		e := t.slots[i].Load()
		if e == nil {
			continue
		}
		for j := nt.start(e.hash); ; j = (j + 1) & nt.mask {
			if nt.slots[j].Load() == nil {
				nt.slots[j].Store(e)
				break
			}
		}
	}
	return nt
}

// tableSizeFor returns the smallest power-of-two slot count that keeps n
// occupied entries under the 2/3 load cap.
func tableSizeFor(n int) int {
	size := minTableSize
	for uint64(n)*3 > uint64(size)*2 {
		size *= 2
	}
	return size
}

// findConfig returns the newest version of cfg, or nil.
func (t *table) findConfig(hash uint64, cfg space.Config) *item {
	for i := t.start(hash); ; i = (i + 1) & t.mask {
		e := t.slots[i].Load()
		if e == nil {
			return nil
		}
		if e.hash == hash && e.cfg.Equal(cfg) {
			return e
		}
	}
}

// storeConfig publishes e as the newest version of its configuration.
func (t *table) storeConfig(hash uint64, e *item) {
	for i := t.start(hash); ; i = (i + 1) & t.mask {
		old := t.slots[i].Load()
		if old == nil || (old.hash == hash && old.cfg.Equal(e.cfg)) {
			t.slots[i].Store(e)
			return
		}
	}
}

package store

import "repro/internal/space"

// Snapshot is an immutable point-in-time view of a Store, captured in
// O(shards) without copying entries. The batch evaluator resolves every
// exact hit and kriging decision of one batch against a snapshot so the
// batch semantics ("no query uses another batch member as support") hold
// even while worker goroutines append simulation results concurrently.
//
// The zero Snapshot is empty and usable.
type Snapshot struct {
	states []*shardState
}

// Len returns the number of configurations visible in the snapshot.
func (sn Snapshot) Len() int {
	n := 0
	for _, st := range sn.states {
		n += st.live
	}
	return n
}

// Lookup returns the value recorded for an exact configuration match at
// snapshot time.
func (sn Snapshot) Lookup(c space.Config) (float64, bool) {
	if len(sn.states) == 0 {
		return 0, false
	}
	hash := hashConfig(c)
	return sn.states[hash&shardMask].lookup(hash, c)
}

// Neighbors collects every configuration within distance <= d of w as of
// snapshot time, oldest-first, by the same scan as Store.Neighbors.
func (sn Snapshot) Neighbors(w space.Config, d float64) *Neighborhood {
	return neighborsStates(sn.states, w, d)
}

// NeighborsInto is Neighbors into a caller-owned buffer, reusing its
// slices and query scratch — allocation-free once the buffer is warm.
// buf must not be used by concurrent queries.
func (sn Snapshot) NeighborsInto(buf *Neighborhood, w space.Config, d float64) *Neighborhood {
	return neighborsStatesInto(buf, sn.states, w, d)
}

// NearestK returns the k closest configurations within distance d as of
// snapshot time — identical to Neighbors(w, d).NearestK(k), with the
// same contract as Store.NearestK.
func (sn Snapshot) NearestK(w space.Config, d float64, k int) *Neighborhood {
	nb := sn.NearestKInto(new(Neighborhood), w, d, k)
	nb.releaseScratch()
	return nb
}

// NearestKInto is NearestK into a caller-owned buffer, allocation-free
// once the buffer is warm.
func (sn Snapshot) NearestKInto(buf *Neighborhood, w space.Config, d float64, k int) *Neighborhood {
	return nearestKStatesInto(buf, sn.states, w, d, k)
}

// Entries returns the snapshot contents in insertion order.
func (sn Snapshot) Entries() []Entry {
	return entriesStates(sn.states)
}

package store

import "repro/internal/space"

// Snapshot is an immutable point-in-time view of a Store, captured in
// O(1) without copying entries. The batch evaluator resolves every exact
// hit and kriging decision of one batch against a snapshot so the batch
// semantics ("no query uses another batch member as support") hold even
// while worker goroutines append simulation results concurrently.
//
// The zero Snapshot is empty and usable.
type Snapshot struct {
	v *view
}

// frozen returns the captured view, or the empty one for the zero Snapshot.
func (sn Snapshot) frozen() *view {
	if sn.v == nil {
		return emptyView
	}
	return sn.v
}

// Len returns the number of configurations visible in the snapshot.
func (sn Snapshot) Len() int { return sn.frozen().live }

// Lookup returns the value recorded for an exact configuration match at
// snapshot time.
func (sn Snapshot) Lookup(c space.Config) (float64, bool) { return sn.frozen().lookup(c) }

// Neighbors collects every configuration within distance <= d of w as of
// snapshot time, oldest-first, by the same scan as Store.Neighbors.
func (sn Snapshot) Neighbors(w space.Config, d float64) *Neighborhood {
	nb := sn.NeighborsInto(new(Neighborhood), w, d)
	nb.releaseScratch()
	return nb
}

// NeighborsInto is Neighbors into a caller-owned buffer, reusing its
// slices and query scratch — allocation-free once the buffer is warm.
// buf must not be used by concurrent queries.
func (sn Snapshot) NeighborsInto(buf *Neighborhood, w space.Config, d float64) *Neighborhood {
	return sn.frozen().neighborsInto(buf, w, d)
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
	return sn.frozen().nearestKInto(buf, w, d, k)
}

// Entries returns the snapshot contents in insertion order.
func (sn Snapshot) Entries() []Entry { return sn.frozen().entriesCopy() }

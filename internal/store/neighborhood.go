package store

import "sort"

// Neighborhood is the kriging support collected for one query: parallel
// slices of float coordinates and metric values, mirroring the paper's
// Wtmp / λtmp accumulators. The coordinate slices alias the store's
// internal precomputed coordinates and must be treated as read-only.
//
// A Neighborhood doubles as a reusable query buffer: the *Into query
// methods (Store.NeighborsInto, Snapshot.NearestKInto, ...) refill the
// caller's buffer in place, reusing its slices and its private
// collection scratch, so a warm buffer answers radius and k-nearest
// queries without heap allocations. A buffer must not be shared between
// concurrent queries; the store itself stays safe for concurrent use.
type Neighborhood struct {
	Coords [][]float64
	Values []float64
	// Dists holds the distance of each support point to the query.
	Dists []float64

	// q is the per-buffer query scratch: candidate hits live here
	// between queries so repeated *Into calls on one buffer are
	// allocation-free.
	q hitSorter
}

// hitSorter orders collected hits either by insertion sequence
// (radius queries) or by (distance, sequence) (k-nearest queries, the
// order a stable-by-distance sort of an insertion-ordered neighbourhood
// produces). Sorting goes through a pointer receiver into the pooled
// scratch, so it never allocates.
type hitSorter struct {
	hits   []hit
	byDist bool
}

func (s *hitSorter) Len() int      { return len(s.hits) }
func (s *hitSorter) Swap(a, b int) { s.hits[a], s.hits[b] = s.hits[b], s.hits[a] }
func (s *hitSorter) Less(a, b int) bool {
	if s.byDist && s.hits[a].dist != s.hits[b].dist {
		return s.hits[a].dist < s.hits[b].dist
	}
	return s.hits[a].e.seq < s.hits[b].e.seq
}

// hit is one in-range entry collected during a radius query, carried with
// its distance until the seq sort restores insertion order.
type hit struct {
	e    *item
	dist float64
}

// finishHitsInto sorts the collected hits into insertion order
// (sequence numbers are unique within a view, so the order is total) and
// packs them into the caller's buffer, allocation-free once the buffer
// is warm.
func finishHitsInto(buf *Neighborhood) *Neighborhood {
	buf.q.byDist = false
	sort.Sort(&buf.q)
	buf.reset()
	for _, h := range buf.q.hits {
		buf.appendHit(h)
	}
	return buf
}

// finishNearestKInto packs the k nearest collected hits into the
// caller's buffer with exactly Neighborhood.NearestK's contract: when
// every hit fits (<= k), insertion order is preserved; otherwise hits
// are ordered by (distance, sequence) — what a stable-by-distance sort
// of an insertion-ordered neighbourhood yields — and truncated to k.
func finishNearestKInto(buf *Neighborhood, k int) *Neighborhood {
	hits := buf.q.hits
	if len(hits) <= k {
		return finishHitsInto(buf)
	}
	buf.q.byDist = true
	sort.Sort(&buf.q)
	hits = buf.q.hits[:k]
	buf.reset()
	for _, h := range hits {
		buf.appendHit(h)
	}
	return buf
}

// Len returns the number of support points (Nn).
func (nb *Neighborhood) Len() int { return len(nb.Values) }

// reset clears the visible slices, keeping capacity for reuse.
func (nb *Neighborhood) reset() {
	nb.Coords = nb.Coords[:0]
	nb.Values = nb.Values[:0]
	nb.Dists = nb.Dists[:0]
}

// appendHit adds one collected entry to the visible slices.
func (nb *Neighborhood) appendHit(h hit) {
	nb.Coords = append(nb.Coords, h.e.coords)
	nb.Values = append(nb.Values, h.e.lambda)
	nb.Dists = append(nb.Dists, h.dist)
}

// releaseScratch drops the collection scratch — used by the allocating
// wrapper APIs so a returned Neighborhood does not pin candidate entries
// beyond the coordinates it exposes.
func (nb *Neighborhood) releaseScratch() { nb.q = hitSorter{} }

// NearestK returns the k closest support points (ties kept in insertion
// order), or the whole neighbourhood when k <= 0 or k >= Len. Capping the
// kriging support at the nearest points is the standard way to keep the
// Γ system small and well conditioned (Numerical Recipes recommends
// "order 20 or fewer" supports). For an allocation-free alternative, see
// Store.NearestKInto and Snapshot.NearestKInto.
func (nb *Neighborhood) NearestK(k int) *Neighborhood {
	if k <= 0 || k >= nb.Len() {
		return nb
	}
	idx := make([]int, nb.Len())
	for i := range idx {
		idx[i] = i
	}
	// Stable selection by distance: insertion order breaks ties, keeping
	// the result deterministic.
	sort.SliceStable(idx, func(a, b int) bool { return nb.Dists[idx[a]] < nb.Dists[idx[b]] })
	out := &Neighborhood{
		Coords: make([][]float64, k),
		Values: make([]float64, k),
		Dists:  make([]float64, k),
	}
	for o, i := range idx[:k] {
		out.Coords[o] = nb.Coords[i]
		out.Values[o] = nb.Values[i]
		out.Dists[o] = nb.Dists[i]
	}
	return out
}

// WithoutZeroDistance returns a copy of the neighbourhood with the
// zero-distance entries removed (used to exclude the query point itself
// from leave-one-out style supports).
func (nb *Neighborhood) WithoutZeroDistance() *Neighborhood {
	n := 0
	for _, d := range nb.Dists {
		if d != 0 {
			n++
		}
	}
	out := &Neighborhood{
		Coords: make([][]float64, 0, n),
		Values: make([]float64, 0, n),
		Dists:  make([]float64, 0, n),
	}
	for i, d := range nb.Dists {
		if d == 0 {
			continue
		}
		out.Coords = append(out.Coords, nb.Coords[i])
		out.Values = append(out.Values, nb.Values[i])
		out.Dists = append(out.Dists, d)
	}
	return out
}

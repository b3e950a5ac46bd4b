package store

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

// assertSameNeighborhood fails unless got and want are bit-identical:
// same length, same coordinate vectors in the same order, same values
// and same distances.
func assertSameNeighborhood(t *testing.T, ctx string, got, want *Neighborhood) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len = %d, want %d", ctx, got.Len(), want.Len())
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			t.Fatalf("%s: Values[%d] = %v, want %v", ctx, i, got.Values[i], want.Values[i])
		}
		if got.Dists[i] != want.Dists[i] {
			t.Fatalf("%s: Dists[%d] = %v, want %v", ctx, i, got.Dists[i], want.Dists[i])
		}
		if len(got.Coords[i]) != len(want.Coords[i]) {
			t.Fatalf("%s: Coords[%d] dim mismatch", ctx, i)
		}
		for j := range want.Coords[i] {
			if got.Coords[i][j] != want.Coords[i][j] {
				t.Fatalf("%s: Coords[%d][%d] = %v, want %v", ctx, i, j, got.Coords[i][j], want.Coords[i][j])
			}
		}
	}
}

func randConfig(r *rng.Stream, nv, lo, hi int) space.Config {
	c := make(space.Config, nv)
	for i := range c {
		c[i] = r.IntRange(lo, hi)
	}
	return c
}

// bruteModel is the reference the store is checked against: a plain
// slice of entries in first-insertion order, where re-adding a
// configuration updates its value in place.
type bruteModel []Entry

func (m *bruteModel) add(c space.Config, lam float64) {
	for i := range *m {
		if (*m)[i].Config.Equal(c) {
			(*m)[i].Lambda = lam
			return
		}
	}
	*m = append(*m, Entry{Config: c.Clone(), Lambda: lam})
}

// neighbors filters every entry by distance, oldest-first.
func (m bruteModel) neighbors(metric space.Metric, w space.Config, d float64) *Neighborhood {
	nb := &Neighborhood{}
	for _, e := range m {
		if dist := metric.Distance(w, e.Config); dist <= d {
			nb.Coords = append(nb.Coords, e.Config.Floats())
			nb.Values = append(nb.Values, e.Lambda)
			nb.Dists = append(nb.Dists, dist)
		}
	}
	return nb
}

// bruteNearestK is the k-nearest contract spelled out: insertion order
// when at most k points are in range, otherwise the first k of a stable
// sort by distance (ties oldest-first).
func bruteNearestK(nb *Neighborhood, k int) *Neighborhood {
	if nb.Len() <= k {
		return nb
	}
	idx := make([]int, nb.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return nb.Dists[idx[a]] < nb.Dists[idx[b]] })
	out := &Neighborhood{}
	for _, i := range idx[:k] {
		out.Coords = append(out.Coords, nb.Coords[i])
		out.Values = append(out.Values, nb.Values[i])
		out.Dists = append(out.Dists, nb.Dists[i])
	}
	return out
}

// querier is the query surface Store and Snapshot share.
type querier interface {
	Neighbors(w space.Config, d float64) *Neighborhood
	NeighborsInto(buf *Neighborhood, w space.Config, d float64) *Neighborhood
	NearestK(w space.Config, d float64, k int) *Neighborhood
	NearestKInto(buf *Neighborhood, w space.Config, d float64, k int) *Neighborhood
}

// TestNeighborsIndexEquivalence is the contract of the store's radius
// and k-nearest queries: for random stores, every query form returns
// exactly the brute-force answer — values, distances and tie order
// included — across the supported metrics, several dimensionalities,
// lattice spacings, negative coordinates and overwrites. Stored
// configurations sit on a lattice of spacing cell while queries fall
// anywhere, so each spacing moves where radius boundaries and distance
// ties land. Each answer is checked on a single-shard and a 16-shard
// store, live and through a Snapshot taken mid-load (later adds and
// overwrites must stay invisible to it), and both allocating and
// through one warm *Into buffer reused across radii and k.
func TestNeighborsIndexEquivalence(t *testing.T) {
	metrics := []space.Metric{space.MetricL1, space.MetricL2, space.MetricLInf}
	for _, nv := range []int{2, 4, 9, 23} {
		for _, cell := range []int{1, 3, 5} {
			for _, metric := range metrics {
				name := fmt.Sprintf("nv=%d/cell=%d/%v", nv, cell, metric)
				t.Run(name, func(t *testing.T) {
					r := rng.NewNamed(7, name)
					stores := []*Store{NewSharded(metric, 1), NewSharded(metric, 16)}
					var model, snapModel bruteModel
					var snaps []Snapshot
					const n = 400
					for i := 0; i < n; i++ {
						c := randConfig(r, nv, -6, 12)
						for j := range c {
							c[j] *= cell
						}
						if i%5 == 4 {
							// Re-add an earlier configuration: an overwrite.
							c = model[r.Intn(len(model))].Config
						}
						lam := r.Float64()
						model.add(c, lam)
						for _, s := range stores {
							s.Add(c, lam)
						}
						if i == n/2 {
							snapModel = append(bruteModel(nil), model...)
							for _, s := range stores {
								snaps = append(snaps, s.Snapshot())
							}
						}
					}
					for _, s := range stores {
						if s.Len() != len(model) {
							t.Fatalf("Len = %d, want %d", s.Len(), len(model))
						}
					}
					var buf Neighborhood
					for q := 0; q < 40; q++ {
						w := randConfig(r, nv, -8*cell, 14*cell)
						if q%2 == 1 {
							// Perturb a stored point so high-dimensional
							// queries find neighbours at small radii too.
							w = model[r.Intn(len(model))].Config.Clone()
							for j := 0; j < 3; j++ {
								w[r.Intn(nv)] += r.IntRange(-1, 1)
							}
						}
						for _, d := range []float64{0, 1, 2, 3, 5, 8} {
							ctx := fmt.Sprintf("w=%v d=%v", w, d)
							check := func(label string, nbs querier, m bruteModel) {
								want := m.neighbors(metric, w, d)
								all := nbs.Neighbors(w, d)
								assertSameNeighborhood(t, label+" "+ctx, all, want)
								assertSameNeighborhood(t, label+" into "+ctx, nbs.NeighborsInto(&buf, w, d), want)
								for _, k := range []int{1, 3, 8} {
									wantK := bruteNearestK(want, k)
									kctx := fmt.Sprintf("%s %s k=%d", label, ctx, k)
									assertSameNeighborhood(t, "truncated "+kctx, all.NearestK(k), wantK)
									assertSameNeighborhood(t, kctx, nbs.NearestK(w, d, k), wantK)
									assertSameNeighborhood(t, "into "+kctx, nbs.NearestKInto(&buf, w, d, k), wantK)
								}
							}
							for i, s := range stores {
								check(fmt.Sprintf("shards=%d", len(s.shards)), s, model)
								check(fmt.Sprintf("snapshot shards=%d", len(s.shards)), snaps[i], snapModel)
							}
						}
					}
				})
			}
		}
	}
}

// TestNeighborsIndexOverwrite pins the overwrite semantics: re-adding a
// configuration updates the value a radius query sees without
// duplicating the entry or disturbing its insertion rank.
func TestNeighborsIndexOverwrite(t *testing.T) {
	s := New(space.MetricL1)
	s.Add(space.Config{0, 0}, 1)
	s.Add(space.Config{1, 0}, 2)
	s.Add(space.Config{0, 0}, 3) // overwrite oldest
	nb := s.Neighbors(space.Config{0, 0}, 2)
	if nb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", nb.Len())
	}
	if nb.Values[0] != 3 || nb.Values[1] != 2 {
		t.Errorf("Values = %v, want [3 2] (overwritten value at original rank)", nb.Values)
	}
}

// TestNeighborsIndexAfterReset checks radius queries keep working after
// the store is emptied and refilled.
func TestNeighborsIndexAfterReset(t *testing.T) {
	s := New(space.MetricL1)
	s.Add(space.Config{1, 1}, 1)
	s.Reset()
	if nb := s.Neighbors(space.Config{1, 1}, 4); nb.Len() != 0 {
		t.Fatalf("neighbourhood after Reset: %d entries", nb.Len())
	}
	s.Add(space.Config{2, 2}, 5)
	nb := s.Neighbors(space.Config{1, 1}, 4)
	if nb.Len() != 1 || nb.Values[0] != 5 {
		t.Fatalf("post-Reset refill: %v", nb)
	}
}

package store

import (
	"fmt"
	"math"
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

// neighbors filters every entry by L1 distance, oldest-first.
func (m bruteModel) neighbors(w space.Config, d float64) *Neighborhood {
	nb := &Neighborhood{}
	for _, e := range m {
		if dist := float64(space.L1(w, e.Config)); dist <= d {
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

// probeOffset draws the offset of a stored row from a query centre out
// of the ball the subtest names: "L1" spends up to 9 unit steps on
// random coordinates with one sign per coordinate, "L2" rounds a
// Gaussian direction scaled to a Euclidean length below 9, and "Linf"
// moves every coordinate independently within [-r, r], r <= 3. The L∞
// cube is the population the word-length-sum filter cannot reject —
// coordinates moving both ways keep |ΔΣ| small while L1 grows past d.
func probeOffset(r *rng.Stream, nv int, shape string) []int {
	off := make([]int, nv)
	switch shape {
	case "L1":
		signs := make([]int, nv)
		for j := range signs {
			signs[j] = 2*r.Intn(2) - 1
		}
		for steps := r.IntRange(0, 9); steps > 0; steps-- {
			j := r.Intn(nv)
			off[j] += signs[j]
		}
	case "L2":
		g := make([]float64, nv)
		norm := 0.0
		for j := range g {
			g[j] = r.Norm()
			norm += g[j] * g[j]
		}
		scale := 9 * r.Float64() / math.Sqrt(norm)
		for j := range off {
			off[j] = int(math.Round(g[j] * scale))
		}
	case "Linf":
		lim := r.IntRange(0, 3)
		for j := range off {
			off[j] = r.IntRange(-lim, lim)
		}
	}
	return off
}

// boundaryOffsets are the rows pinned to the filter's edges for a
// radius rad: two rows whose coordinates all move one way, up and
// down, so |ΔΣ| = L1 = rad exactly (in range at d = rad, and rejected
// at d = rad by a filter that tested |ΔΣ| >= d), and one row with
// |ΔΣ| = rad-1 but L1 = rad+1 (inside the Σ window, outside the ball).
func boundaryOffsets(r *rng.Stream, nv, rad int) [][]int {
	up, down, mixed := make([]int, nv), make([]int, nv), make([]int, nv)
	for steps := 0; steps < rad; steps++ {
		up[r.Intn(nv)]++
		down[r.Intn(nv)]--
	}
	i := r.Intn(nv)
	j := (i + 1 + r.Intn(nv-1)) % nv
	mixed[i], mixed[j] = rad, -1
	return [][]int{up, down, mixed}
}

// TestNeighborsIndexEquivalence is the contract of the store's radius
// and k-nearest queries: for random stores, every query form returns
// exactly the brute-force L1 answer — values, distances and tie order
// included — across several dimensionalities, lattice spacings,
// negative coordinates, overwrites and integer and non-integer radii.
// A background cloud of stored configurations sits on a lattice of
// spacing cell while queries fall anywhere, so each spacing moves where
// radius boundaries and distance ties land. Around a set of query
// centres the store also holds probe rows: boundaryOffsets' rows at
// exactly |ΔΣ| = d = L1 and inside the Σ window but outside the ball,
// plus random rows from the ball the subtest names (probeOffset), so
// the word-length-sum filter is exercised on both sides of its edge.
// Each answer is checked on a store built by Add and on one built by
// AddBatch and then compacted (the three insert paths that set an
// entry's sum), live and through a Snapshot taken mid-load (later adds
// and overwrites must stay invisible to it), and both allocating and
// through one warm *Into buffer reused across radii and k.
func TestNeighborsIndexEquivalence(t *testing.T) {
	radii := []float64{0, 1, 2, 2.5, 3, 5, 8}
	for _, nv := range []int{2, 4, 9, 23} {
		for _, cell := range []int{1, 3, 5} {
			for _, shape := range []string{"L1", "L2", "Linf"} {
				name := fmt.Sprintf("nv=%d/cell=%d/%s", nv, cell, shape)
				t.Run(name, func(t *testing.T) {
					r := rng.NewNamed(7, name)
					centres := make([]space.Config, 8)
					for i := range centres {
						centres[i] = randConfig(r, nv, -8*cell, 14*cell)
					}
					var rows []space.Config
					for i := 0; i < 240; i++ {
						c := randConfig(r, nv, -6, 12)
						for j := range c {
							c[j] *= cell
						}
						rows = append(rows, c)
					}
					for _, w := range centres {
						var offs [][]int
						for _, d := range radii {
							if d == float64(int(d)) && d > 0 {
								offs = append(offs, boundaryOffsets(r, nv, int(d))...)
							}
						}
						for k := 0; k < 8; k++ {
							offs = append(offs, probeOffset(r, nv, shape))
						}
						for _, off := range offs {
							c := w.Clone()
							for j := range c {
								c[j] += off[j]
							}
							rows = append(rows, c)
						}
					}
					for i := len(rows) - 1; i > 0; i-- { // Fisher–Yates
						j := r.Intn(i + 1)
						rows[i], rows[j] = rows[j], rows[i]
					}

					added, batched := New(), New()
					var pending []Entry
					var model, snapModel bruteModel
					var snaps []Snapshot
					put := func(c space.Config) {
						lam := r.Float64()
						model.add(c, lam)
						added.Add(c, lam)
						pending = append(pending, Entry{Config: c, Lambda: lam})
						if len(pending) == 37 {
							batched.AddBatch(pending)
							pending = pending[:0]
						}
					}
					for i, c := range rows {
						put(c)
						if i%4 == 3 {
							// Re-add an earlier configuration: an overwrite.
							put(model[r.Intn(len(model))].Config)
						}
						if i == len(rows)/2 {
							batched.AddBatch(pending)
							pending = pending[:0]
							snapModel = append(bruteModel(nil), model...)
							snaps = append(snaps, added.Snapshot(), batched.Snapshot())
						}
					}
					batched.AddBatch(pending)
					if batched.Versions() == batched.Len() {
						t.Fatal("the workload stored no superseded versions")
					}
					stores := []*Store{added, batched}
					for _, s := range stores {
						if s.Len() != len(model) {
							t.Fatalf("Len = %d, want %d", s.Len(), len(model))
						}
					}
					var buf Neighborhood
					for q := 0; q < 40; q++ {
						var w space.Config
						switch q % 4 {
						case 0, 2:
							w = centres[(q/2)%len(centres)]
						case 1:
							w = randConfig(r, nv, -8*cell, 14*cell)
						case 3:
							// Perturb a stored point so high-dimensional
							// queries find neighbours at small radii too.
							w = model[r.Intn(len(model))].Config.Clone()
							for j := 0; j < 3; j++ {
								w[r.Intn(nv)] += r.IntRange(-1, 1)
							}
						}
						for _, d := range radii {
							ctx := fmt.Sprintf("w=%v d=%v", w, d)
							check := func(label string, nbs querier, m bruteModel) {
								want := m.neighbors(w, d)
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
								label := []string{"Add", "AddBatch"}[i]
								check(label, s, model)
								check("snapshot "+label, snaps[i], snapModel)
							}
						}
					}
				})
			}
		}
	}
}

// TestNeighborsDimensionMismatchPanics keeps space.L1's contract on the
// scan: a query whose dimension differs from the stored configurations'
// panics, even when every stored entry lies outside the query's
// word-length-sum window and the filter would otherwise skip it.
func TestNeighborsDimensionMismatchPanics(t *testing.T) {
	s := New()
	s.Add(space.Config{0, 0}, 1)
	s.Add(space.Config{1, 2}, 2)
	snap := s.Snapshot()
	far := space.Config{100, 100, 100} // Σ = 300, far outside [0-d, 3+d]
	near := space.Config{1, 1, 0}      // Σ = 2, inside the window
	var buf Neighborhood
	for _, w := range []space.Config{far, near, {3}} {
		for name, query := range map[string]func(){
			"Neighbors":          func() { s.Neighbors(w, 1) },
			"NearestKInto":       func() { s.NearestKInto(&buf, w, 1, 10) },
			"Snapshot.Neighbors": func() { snap.Neighbors(w, 1) },
		} {
			func() {
				defer func() {
					if p := recover(); p != "space: L1 on configs of different dimension" {
						t.Errorf("%s(%v): recovered %v, want the L1 dimension panic", name, w, p)
					}
				}()
				query()
			}()
		}
	}
}

// TestNeighborsIndexOverwrite pins the overwrite semantics: re-adding a
// configuration updates the value a radius query sees without
// duplicating the entry or disturbing its insertion rank.
func TestNeighborsIndexOverwrite(t *testing.T) {
	s := New()
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

package optim

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/space"
)

// Exhaustive is the brute-force reference solver the optimiser tests
// compare against on small spaces: it enumerates the whole bounded
// lattice and returns the feasible configuration of minimum cost.

// ExhaustiveOptions parameterises Exhaustive.
type ExhaustiveOptions struct {
	LambdaMin float64
	Bounds    space.Bounds
	Cost      CostFunc // nil selects TotalBits
	// MaxConfigs aborts the search if the lattice is larger than this.
	// Zero selects 1<<22.
	MaxConfigs int
}

// ExhaustiveResult reports the brute-force optimum.
type ExhaustiveResult struct {
	Best        space.Config
	Lambda      float64
	Cost        float64
	Evaluations int
}

// Exhaustive enumerates opts.Bounds and returns the cheapest feasible
// configuration.
func Exhaustive(ctx context.Context, oracle Oracle, opts ExhaustiveOptions) (ExhaustiveResult, error) {
	if err := opts.Bounds.Validate(); err != nil {
		return ExhaustiveResult{}, err
	}
	cost := opts.Cost
	if cost == nil {
		cost = TotalBits
	}
	limit := opts.MaxConfigs
	if limit == 0 {
		limit = 1 << 22
	}
	if n := latticeSize(opts.Bounds); n > limit {
		return ExhaustiveResult{}, fmt.Errorf("search space of %d configurations exceeds limit %d", n, limit)
	}
	res := ExhaustiveResult{}
	var evalErr error
	found := false
	enumerate(opts.Bounds, func(c space.Config) bool {
		lam, err := oracle.Evaluate(ctx, c)
		res.Evaluations++
		if err != nil {
			evalErr = fmt.Errorf("exhaustive evaluation of %v: %w", c, err)
			return false
		}
		if lam >= opts.LambdaMin {
			if cc := cost(c); !found || cc < res.Cost {
				res.Best, res.Lambda, res.Cost, found = c.Clone(), lam, cc, true
			}
		}
		return true
	})
	if evalErr != nil {
		return res, evalErr
	}
	if !found {
		return res, errors.New("exhaustive search found no feasible configuration")
	}
	return res, nil
}

// latticeSize returns the number of lattice points inside b, saturating
// at 1<<62 for enormous spaces.
func latticeSize(b space.Bounds) int {
	n := 1
	for i := range b.Lo {
		w := b.Hi[i] - b.Lo[i] + 1
		if n > (1<<62)/w {
			return 1 << 62
		}
		n *= w
	}
	return n
}

// enumerate calls fn for every lattice point of b in lexicographic
// order, stopping early if fn returns false. The Config passed to fn is
// reused between calls.
func enumerate(b space.Bounds, fn func(space.Config) bool) {
	nv := b.Dim()
	if nv == 0 {
		return
	}
	cur := b.Corner(false)
	for fn(cur) {
		// Odometer increment.
		i := nv - 1
		for ; i >= 0; i-- {
			cur[i]++
			if cur[i] <= b.Hi[i] {
				break
			}
			cur[i] = b.Lo[i]
		}
		if i < 0 {
			return
		}
	}
}

func TestLatticeSize(t *testing.T) {
	if latticeSize(space.UniformBounds(2, 1, 3)) != 9 {
		t.Error("size wrong for 3x3")
	}
	if latticeSize(space.UniformBounds(0, 0, 0)) != 1 {
		t.Error("size of zero-dim should be 1 (the empty config)")
	}
	// Saturation for enormous spaces.
	if latticeSize(space.UniformBounds(23, 2, 14)) <= 0 {
		t.Error("size overflowed")
	}
}

func TestEnumerateCountsAndOrder(t *testing.T) {
	var got []string
	enumerate(space.UniformBounds(2, 0, 2), func(c space.Config) bool {
		got = append(got, c.Key())
		return true
	})
	if len(got) != 9 {
		t.Fatalf("enumerated %d configs, want 9", len(got))
	}
	if got[0] != "0,0" || got[1] != "0,1" || got[8] != "2,2" {
		t.Errorf("lexicographic order violated: %v", got)
	}
	seen := map[string]bool{}
	for _, k := range got {
		if seen[k] {
			t.Fatalf("duplicate %s", k)
		}
		seen[k] = true
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	n := 0
	enumerate(space.UniformBounds(2, 0, 4), func(space.Config) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestPropertyEnumerateVisitsSizePoints(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nv := 1 + r.Intn(3)
		lo := r.IntRange(-3, 3)
		b := space.UniformBounds(nv, lo, lo+r.Intn(4))
		n := 0
		enumerate(b, func(space.Config) bool { n++; return true })
		return n == latticeSize(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

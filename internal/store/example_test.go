package store_test

import (
	"fmt"

	"repro/internal/space"
	"repro/internal/store"
)

// ExampleStore_AddBatch bulk-loads a batch of simulated results in one
// call — one view publication instead of one per entry, the
// path to use when restoring a persisted campaign or committing a batch
// of simulations. Semantics match a loop of Add calls exactly: entries
// land in input order and a repeated configuration keeps the last value
// at its first occurrence's insertion rank.
func ExampleStore_AddBatch() {
	s := store.New()
	added := s.AddBatch([]store.Entry{
		{Config: space.Config{8, 12}, Lambda: -40.5},
		{Config: space.Config{9, 12}, Lambda: -42.1},
		{Config: space.Config{8, 13}, Lambda: -41.3},
		{Config: space.Config{8, 12}, Lambda: -40.9}, // overwrite, keeps rank
	})
	fmt.Println("added:", added, "len:", s.Len())
	nb := s.Neighbors(space.Config{8, 12}, 1)
	fmt.Println("neighbors oldest-first:", nb.Values)
	// Output:
	// added: 3 len: 3
	// neighbors oldest-first: [-40.9 -42.1 -41.3]
}

package bench

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/store"
)

// BenchmarkAddBulk measures the store's write path at 1k/10k/100k
// entries on the scaling workload (4-variable hypercube, d = 3 index
// regime): one AddBatch call versus a loop of per-call Adds. ns/op is
// the cost of ingesting the WHOLE batch into a fresh store.
//
// This is the headline number of the amortized write path: under the
// PR 2 copy-on-write scheme every Add rebuilt its shard (O(shard size)
// per insert), so the 100k bulk load took ~60 s at 16 shards; the
// builder/epoch scheme lands it around 100 ms (~600×), with the per-Add
// loop within 2× of the batch call (its extra cost is one view
// publication per entry instead of one per batch).
//
//	go test ./internal/bench -run '^$' -bench AddBulk -benchtime 1x
func BenchmarkAddBulk(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		r := rng.New(uint64(n) + 7)
		entries := make([]store.Entry, n)
		for i := range entries {
			entries[i] = store.Entry{Config: scalingConfig(r), Lambda: r.Float64()}
		}
		b.Run(fmt.Sprintf("n=%d/batch", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := store.New()
				s.AddBatch(entries)
			}
		})
		b.Run(fmt.Sprintf("n=%d/perAdd", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := store.New()
				for _, e := range entries {
					s.Add(e.Config, e.Lambda)
				}
			}
		})
	}
}

// BenchmarkAddBulkRestore is the end-to-end restore view: bulk-loading a
// recorded 10k-point campaign into a fresh evaluator store via the same
// AddBatch path Evaluator.Preload uses, including the duplicate handling
// of a trace that revisits configurations.
func BenchmarkAddBulkRestore(b *testing.B) {
	const n = 10000
	r := rng.New(11)
	entries := make([]store.Entry, n)
	for i := range entries {
		// ~10% revisits exercise the overwrite path at bulk scale.
		if i > 0 && r.Float64() < 0.1 {
			entries[i] = store.Entry{Config: entries[r.Intn(i)].Config, Lambda: r.Float64()}
		} else {
			entries[i] = store.Entry{Config: scalingConfig(r), Lambda: r.Float64()}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := store.New()
		s.AddBatch(entries)
	}
}

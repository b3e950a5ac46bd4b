package bench

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/store"
)

// walEntries builds the scaling workload used by BenchmarkAddBulk so
// the durable numbers are directly comparable to the in-memory ones.
func walEntries(n int) []store.Entry {
	r := rng.New(uint64(n) + 7)
	entries := make([]store.Entry, n)
	for i := range entries {
		entries[i] = store.Entry{Config: scalingConfig(r), Lambda: r.Float64()}
	}
	return entries
}

// BenchmarkAddBulkWAL is BenchmarkAddBulk through the durable store:
// the same 1k/10k/100k bulk loads, with the batch group-committed to
// the write-ahead log — encoded, written and fsynced — before it is
// applied to memory. ns/op is the durable AddBatch into a fresh store;
// opening and closing the state directory (a handful of one-time
// fsyncs per campaign, not per batch) happen outside the timer. The
// durability acceptance bar is ≤ 2× the in-memory AddBatch numbers at
// 100k — the log adds one sequential write and one fsync per batch,
// not per entry.
//
//	go test ./internal/bench -run '^$' -bench AddBulkWAL -benchtime 1x
func BenchmarkAddBulkWAL(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		entries := walEntries(n)
		b.Run(fmt.Sprintf("n=%d/batch", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := store.Open(store.DurabilityOptions{Dir: b.TempDir()})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				s.AddBatch(entries)
				if err := s.Err(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkRecovery measures reopening a state directory: replaying a
// logged 100k-entry campaign (committed in 100-entry batches, the
// EvaluateAll commit granularity) back into the store. The
// acceptance bar is < 1 s for 100k entries — recovery must be a blip
// at campaign start, not a second campaign.
//
//	go test ./internal/bench -run '^$' -bench Recovery -benchtime 1x
func BenchmarkRecovery(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		entries := walEntries(n)
		dir := b.TempDir()
		s, err := store.Open(store.DurabilityOptions{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		const commit = 100
		for lo := 0; lo < len(entries); lo += commit {
			hi := lo + commit
			if hi > len(entries) {
				hi = len(entries)
			}
			s.AddBatch(entries[lo:hi])
		}
		if err := s.Err(); err != nil {
			b.Fatal(err)
		}
		wantLen := s.Len() // random draws collide, so Len < n
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := store.Open(store.DurabilityOptions{Dir: dir})
				if err != nil {
					b.Fatal(err)
				}
				if r.Len() != wantLen {
					b.Fatalf("recovered %d entries, want %d", r.Len(), wantLen)
				}
				b.StopTimer()
				if err := r.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

package store

// Versions returns the number of entry versions currently held in
// memory, including the superseded overwrite versions that Compact
// reclaims. Versions() == Len() when every stored configuration has
// exactly one version; the difference is the memory the overwrite path's
// O(1) versioned appends have accumulated since the last Compact.
func (s *Store) Versions() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.b.entries)
		sh.mu.Unlock()
	}
	return n
}

// Compact rebuilds each shard's builder keeping only the current version
// of every configuration, dropping the superseded versions that
// overwrites append (the overwrite path is O(1) because it never removes
// the old version in place — Compact is where that debt is repaid). It
// returns the number of superseded versions dropped.
//
// Each shard is rebuilt through the same amortized insert path AddBatch
// uses — entries re-inserted into a fresh builder with their original
// sequence stamps, one view publication per shard — so neighbourhoods,
// lookup results, and the global insertion order are unchanged.
// Previously published views and Snapshots keep their own frozen entry
// arrays and tables: they are unaffected and still pin the old versions
// until released, which is why Compact frees memory promptly only once
// old snapshots are gone.
//
// Compact only blocks writers, one shard at a time; concurrent readers
// stay lock-free throughout.
//
// On a durable store Compact also truncates the log: the compacted
// contents are written as one snapshot file and every older log segment
// is deleted (wal.Log.Rotate), so the disk sheds the superseded
// versions at the same moment memory does and recovery replays the
// snapshot instead of the whole history. A truncation failure is sticky
// via Err; the in-memory compaction still happened.
func (s *Store) Compact() (dropped int) {
	if s.log == nil {
		return s.compactMem()
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	dropped = s.compactMem()
	if s.walErr != nil || s.closed {
		return dropped
	}
	if err := s.log.Rotate(s.records(s.Entries())); err != nil {
		s.walErr = err
	}
	return dropped
}

func (s *Store) compactMem() (dropped int) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if len(sh.b.entries) == sh.b.live {
			sh.mu.Unlock()
			continue // nothing superseded in this shard
		}
		old := sh.b.entries
		var nb shardBuilder
		for _, e := range old {
			if e.replacedBy.Load() != 0 {
				continue // superseded: a newer version of e.cfg follows
			}
			nb.insert(e.hash, e.cfg, e.lambda, e.seq)
		}
		dropped += len(old) - len(nb.entries)
		sh.b = nb
		sh.state.Store(sh.b.publish())
		sh.mu.Unlock()
	}
	return dropped
}

package store

import (
	"fmt"

	"repro/internal/space"
	"repro/internal/store/wal"
)

// DurabilityOptions configures the write-ahead-log backend of a durable
// store. See Open.
type DurabilityOptions struct {
	// Dir is the state directory holding the segment log files; it is
	// created if missing. One directory belongs to one store at a time.
	Dir string
	// Sync is the fsync policy. The zero value (wal.SyncBatch) makes an
	// acknowledged write durable: one fsync per Add or AddBatch. Use
	// wal.SyncNone to trade crash-durability of the latest writes for
	// write latency.
	Sync wal.SyncPolicy
	// SegmentSize overrides the log's segment roll threshold; zero
	// selects wal.DefaultSegmentSize.
	SegmentSize int64
	// FS overrides the filesystem, for fault-injection tests; nil is
	// the operating system.
	FS wal.FS
}

// Open creates a durable store: its contents are recovered from the
// state directory (replayed through the same AddBatch path live writes
// take, so lookups, neighbourhoods and overwrite winners are
// bit-identical to the store that crashed), and every subsequent write
// is logged before it is applied.
//
// Recovery refuses a log whose interior is damaged (wal.ErrCorrupt); a
// torn final record — the residue of a mid-append crash — is truncated
// silently, because nothing acknowledged lived there.
func Open(d DurabilityOptions) (*Store, error) {
	s := New()
	l, err := wal.Open(wal.Options{Dir: d.Dir, Sync: d.Sync, SegmentSize: d.SegmentSize, FS: d.FS})
	if err != nil {
		return nil, err
	}
	var batch []Entry
	err = l.Replay(func(recs []wal.Record) error {
		batch = batch[:0]
		for _, r := range recs {
			batch = append(batch, Entry{Config: space.Config(r.Config), Lambda: r.Lambda})
		}
		s.applyBatch(batch)
		return nil
	})
	if err != nil {
		l.Close()
		return nil, err
	}
	s.log = l
	return s, nil
}

// Err returns the sticky durability failure, if any. A durable store is
// fail-stop: after a write or fsync error the failed write (and every
// later one) is not applied, not acknowledged, and this reports why.
// In-memory stores always return nil, without taking the writer lock.
func (s *Store) Err() error {
	if s.log == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walErr
}

// Close flushes and closes the log. The store remains readable — the
// in-memory views are untouched — but further writes fail sticky.
// Closing an in-memory store, or closing twice, is a no-op.
func (s *Store) Close() error {
	if s.log == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.log.Close()
	if s.walErr != nil {
		return s.walErr
	}
	return err
}

// appendLog logs one write — an Add or a whole batch — as one log record
// (one fsync under SyncBatch). It reports false, so the caller applies
// nothing, once the store is closed or has failed; a failure here
// becomes the sticky error. Callers hold mu.
func (s *Store) appendLog(recs []wal.Record, op string) bool {
	if s.walErr != nil || s.closed {
		return false
	}
	if err := s.log.Append(recs); err != nil {
		s.walErr = fmt.Errorf("store: durable %s: %w", op, err)
		return false
	}
	return true
}

// records converts entries into the log's record type, reusing the
// store's scratch slice: the conversion is header-only (the coordinate
// slices are shared, not copied), so a warm durable store logs a batch
// with zero allocations here. Callers hold mu.
func (s *Store) records(entries []Entry) []wal.Record {
	recs := s.recBuf[:0]
	if cap(recs) < len(entries) {
		recs = make([]wal.Record, 0, len(entries))
	}
	for _, e := range entries {
		recs = append(recs, wal.Record{Config: []int(e.Config), Lambda: e.Lambda})
	}
	s.recBuf = recs
	return recs
}

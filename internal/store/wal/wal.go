package wal

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Record is one persisted store entry: a configuration and its measured
// metric value. The store's durable layer converts store.Entry to and
// from this type so the wal package stays free of store dependencies.
type Record struct {
	Config []int
	Lambda float64
}

// SyncPolicy selects when appended records are flushed to stable
// storage.
type SyncPolicy int

const (
	// SyncBatch (the default) fsyncs once per Append — group commit: a
	// returned Append survives a crash. One fsync covers the whole
	// batch, so the amortized bulk-write speed is preserved.
	SyncBatch SyncPolicy = iota
	// SyncNone never fsyncs on the append path; the operating system
	// flushes at its leisure. A crash may lose the most recent appends
	// (but recovery still yields a consistent prefix).
	SyncNone
)

// Options configures Open.
type Options struct {
	// Dir is the log directory, created if missing.
	Dir string
	// Sync is the fsync policy; the zero value is SyncBatch.
	Sync SyncPolicy
	// SegmentSize is the byte threshold past which the log rolls to a
	// new segment file; zero selects 64 MiB.
	SegmentSize int64
	// FS overrides the filesystem, for fault-injection tests; nil is the
	// operating system.
	FS FS
}

// DefaultSegmentSize is the segment roll threshold when
// Options.SegmentSize is zero.
const DefaultSegmentSize int64 = 64 << 20

// ErrClosed reports use of a closed log.
var ErrClosed = errors.New("wal: log closed")

// errUnreplayed guards against losing recovered state: a log that came
// back from disk with data must hand it over (or be told to drop it)
// before accepting new appends.
var errUnreplayed = errors.New("wal: recovered records must be consumed through Replay before appending")

// Log is an append-only, checksummed segment log. All methods are safe
// for concurrent use; appends are serialised, which is what makes one
// Append a group commit.
//
// After any write or sync failure the log turns fail-stop: the failed
// append was never acknowledged, and every later operation returns the
// same sticky error rather than risking a gap between acknowledged
// records.
type Log struct {
	fs     FS
	dir    string
	sync   SyncPolicy
	segMax int64

	mu       sync.Mutex
	f        File
	segIndex uint64
	segSize  int64
	buf      []byte // encode scratch, reused across appends
	broken   error  // sticky failure
	closed   bool

	replayed       bool
	pendingBatches [][]Record
}

// Open scans dir, validates the segment chain, truncates a torn tail off
// the final segment, and returns a log positioned for appending.
// Recovered state is pending until Replay is called.
//
// Open refuses (with ErrCorrupt) any damage other than a torn final
// record: an interior checksum failure, a gap in the segment sequence,
// or a leftover snapshot file all mean acknowledged data would be lost,
// which is not recoverable silently.
func Open(opts Options) (*Log, error) {
	l := &Log{
		fs:     opts.FS,
		dir:    opts.Dir,
		sync:   opts.Sync,
		segMax: opts.SegmentSize,
	}
	if l.fs == nil {
		l.fs = DefaultFS()
	}
	if l.segMax <= 0 {
		l.segMax = DefaultSegmentSize
	}
	if l.dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if err := l.fs.MkdirAll(l.dir); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", l.dir, err)
	}
	segs, err := l.scanDir()
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := l.startSegment(1, true); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Segments are created starting at 1, and the chain must be
	// contiguous.
	if segs[0] != 1 {
		return nil, corruptf("first segment is %d, want 1", segs[0])
	}
	for i := 1; i < len(segs); i++ {
		if segs[i] != segs[i-1]+1 {
			return nil, corruptf("segment %d missing", segs[i-1]+1)
		}
	}
	for i, idx := range segs {
		last := i == len(segs)-1
		data, err := l.fs.ReadFile(l.path(segName(idx)))
		if err != nil {
			return nil, fmt.Errorf("wal: reading segment %d: %w", idx, err)
		}
		batches, validLen, torn, err := scanSegment(data, idx, last)
		if err != nil {
			return nil, err
		}
		l.pendingBatches = append(l.pendingBatches, batches...)
		if !last {
			continue
		}
		l.segIndex = idx
		if torn && validLen < headerLen {
			// Even the header was cut short; rebuild the segment in
			// place from scratch.
			f, err := l.fs.OpenAppend(l.path(segName(idx)), 0)
			if err != nil {
				return nil, fmt.Errorf("wal: reopening segment %d: %w", idx, err)
			}
			l.f = f
			if err := l.writeHeader(idx); err != nil {
				return nil, err
			}
			continue
		}
		f, err := l.fs.OpenAppend(l.path(segName(idx)), int64(validLen))
		if err != nil {
			return nil, fmt.Errorf("wal: reopening segment %d: %w", idx, err)
		}
		l.f = f
		l.segSize = int64(validLen)
	}
	return l, nil
}

// scanDir returns the segment indices in dir, sorted. A snapshot file
// left by an older version of the log is refused: the log no longer
// reads snapshots, and skipping one would silently drop the contents it
// holds.
func (l *Log) scanDir() (segs []uint64, err error) {
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", l.dir, err)
	}
	for _, name := range names {
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			idx, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 16, 64)
			if perr != nil {
				return nil, corruptf("unparseable segment name %q", name)
			}
			segs = append(segs, idx)
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			return nil, corruptf("snapshot file %q is not supported", name)
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a] < segs[b] })
	return segs, nil
}

// Replay hands the recovered batches to fn in commit order. Passing nil
// discards the recovered records. Replay is required before the first
// Append when recovery found data; it is a no-op the second time.
func (l *Log) Replay(fn func(batch []Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.replayed {
		return nil
	}
	l.replayed = true
	batches := l.pendingBatches
	l.pendingBatches = nil
	if fn == nil {
		return nil
	}
	for _, b := range batches {
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

// Append writes one batch as a single checksummed record and, under
// SyncBatch, fsyncs before returning — the group commit: when Append
// returns nil the whole batch is durable; on error none of it is
// acknowledged and the log is fail-stop. Append encodes into a buffer
// reused across calls, so a warm log appends with O(1) allocations per
// batch regardless of batch size.
func (l *Log) Append(batch []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writable(); err != nil {
		return err
	}
	l.buf = appendRecord(l.buf[:0], batch)
	if l.segSize > headerLen && l.segSize+int64(len(l.buf)) > l.segMax {
		if err := l.roll(); err != nil {
			l.broken = err
			return err
		}
	}
	if err := l.write(l.buf); err != nil {
		l.broken = err
		return err
	}
	if l.sync == SyncBatch {
		if err := l.f.Sync(); err != nil {
			l.broken = fmt.Errorf("wal: sync: %w", err)
			return l.broken
		}
	}
	return nil
}

// Close syncs and closes the current segment. The sticky failure, if
// any, takes precedence in the returned error.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	if l.f == nil {
		return l.broken
	}
	var err error
	if l.broken == nil && l.sync != SyncNone {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if l.broken != nil {
		return l.broken
	}
	return err
}

// writable gates mutating operations; callers hold l.mu.
func (l *Log) writable() error {
	if l.closed {
		return ErrClosed
	}
	if l.broken != nil {
		return l.broken
	}
	if !l.replayed && len(l.pendingBatches) > 0 {
		return errUnreplayed
	}
	return nil
}

// roll finishes the current segment and starts the next one; callers
// hold l.mu. Records already in the old segment were synced per policy
// as they were appended, so the old file just closes.
func (l *Log) roll() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: closing segment %d: %w", l.segIndex, err)
	}
	return l.startSegment(l.segIndex+1, false)
}

// startSegment creates segment idx and writes its header. Under
// SyncBatch the header and the directory entry are fsynced immediately:
// a batch acknowledged right after a roll must not vanish because the
// new segment's name never reached the disk. syncAlways forces that
// durability even under SyncNone (used for the very first segment, so an
// empty-but-opened log is always recoverable).
func (l *Log) startSegment(idx uint64, syncAlways bool) error {
	f, err := l.fs.Create(l.path(segName(idx)))
	if err != nil {
		return fmt.Errorf("wal: creating segment %d: %w", idx, err)
	}
	l.f = f
	l.segIndex = idx
	l.segSize = 0
	if err := l.writeHeader(idx); err != nil {
		return err
	}
	if l.sync == SyncBatch || syncAlways {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: syncing segment %d: %w", idx, err)
		}
		if err := l.fs.SyncDir(l.dir); err != nil {
			return fmt.Errorf("wal: syncing %s: %w", l.dir, err)
		}
	}
	return nil
}

// writeHeader writes the segment header to l.f; callers hold l.mu.
func (l *Log) writeHeader(idx uint64) error {
	hdr := appendHeader(make([]byte, 0, headerLen), idx)
	if err := l.write(hdr); err != nil {
		return err
	}
	return nil
}

// write appends p to the current segment, converting short writes into
// errors; callers hold l.mu.
func (l *Log) write(p []byte) error {
	n, err := l.f.Write(p)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	if err != nil {
		return fmt.Errorf("wal: segment %d write: %w", l.segIndex, err)
	}
	l.segSize += int64(n)
	return nil
}

func (l *Log) path(name string) string { return filepath.Join(l.dir, name) }

func segName(idx uint64) string { return fmt.Sprintf("wal-%016x.seg", idx) }

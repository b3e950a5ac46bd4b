package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/raceflag"
)

// testBatch builds a deterministic batch: batch i holds n entries whose
// configs and values encode (i, j) so recovery checks can recompute them.
func testBatch(i, n int) []Record {
	b := make([]Record, n)
	for j := range b {
		b[j] = Record{Config: []int{i, j, -i - j}, Lambda: float64(i*1000+j) + 0.5}
	}
	return b
}

func sameBatch(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Lambda != b[i].Lambda || len(a[i].Config) != len(b[i].Config) {
			return false
		}
		for j := range a[i].Config {
			if a[i].Config[j] != b[i].Config[j] {
				return false
			}
		}
	}
	return true
}

// replayAll opens the log at dir and collects every recovered batch.
func replayAll(t *testing.T, dir string) ([][]Record, *Log) {
	t.Helper()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var got [][]Record
	if err := l.Replay(func(b []Record) error {
		cp := make([]Record, len(b))
		copy(cp, b)
		got = append(got, cp)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got, l
}

// TestAppendReplayRoundTrip pins the basic contract: appended batches
// come back from a reopened log, in order, bit-identical.
func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]Record
	for i := 0; i < 7; i++ {
		b := testBatch(i, 3+i)
		want = append(want, b)
		if err := l.Append(b); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, l2 := replayAll(t, dir)
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("recovered %d batches, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameBatch(got[i], want[i]) {
			t.Errorf("batch %d differs: %v vs %v", i, got[i], want[i])
		}
	}
	// The reopened log keeps accepting appends.
	if err := l2.Append(testBatch(7, 2)); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
}

// TestOpenEmptyAndFresh checks a fresh directory round-trips to an
// empty, appendable log, and that zero-batch recovery is clean.
func TestOpenEmptyAndFresh(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: filepath.Join(dir, "nested", "state")})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testBatch(0, 1)); err != nil {
		t.Fatal(err)
	}
	l.Close()
}

// TestAppendRequiresReplay guards the recovered-data handover: a log
// that came back with records refuses appends until Replay runs.
func TestAppendRequiresReplay(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(Options{Dir: dir})
	l.Replay(nil)
	l.Append(testBatch(0, 2))
	l.Close()

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.Append(testBatch(1, 2)); !errors.Is(err, errUnreplayed) {
		t.Fatalf("Append before Replay: %v, want errUnreplayed", err)
	}
	if err := l2.Replay(nil); err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(testBatch(1, 2)); err != nil {
		t.Fatalf("Append after Replay: %v", err)
	}
}

// segmentLayout appends nBatches to a fresh log and returns the record
// boundaries (byte offsets within the single segment file) alongside the
// file path, for surgical truncation/corruption tests.
func segmentLayout(t *testing.T, dir string, nBatches int) (path string, bounds []int64) {
	t.Helper()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	bounds = append(bounds, headerLen)
	off := int64(headerLen)
	for i := 0; i < nBatches; i++ {
		b := testBatch(i, 2+i%3)
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
		off += int64(len(appendRecord(nil, b)))
		bounds = append(bounds, off)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(dir, segName(1))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != off {
		t.Fatalf("segment is %d bytes, expected %d from encoding arithmetic", fi.Size(), off)
	}
	return path, bounds
}

// TestRecoverTruncatedAtEveryBoundary is the power-cut truncation
// matrix: the segment is cut at every record boundary and at several
// offsets inside every record (mid-header, mid-payload, one byte short),
// and recovery must in each case yield exactly the batches whose records
// survived intact, truncating the torn tail and accepting appends again.
func TestRecoverTruncatedAtEveryBoundary(t *testing.T) {
	const nBatches = 6
	for b := 0; b <= nBatches; b++ {
		cuts := []int64{0} // relative to the record's start; 0 = cut exactly at the boundary
		if b < nBatches {
			cuts = append(cuts, 1, 4, recHdrLen, recHdrLen+3, -1)
		}
		for _, cut := range cuts {
			t.Run(fmt.Sprintf("batch=%d/cut=%d", b, cut), func(t *testing.T) {
				dir := t.TempDir()
				path, bounds := segmentLayout(t, dir, nBatches)
				at := bounds[b] + cut
				if cut == -1 { // one byte short of the NEXT boundary
					at = bounds[b+1] - 1
				}
				if err := os.Truncate(path, at); err != nil {
					t.Fatal(err)
				}
				got, l := replayAll(t, dir)
				defer l.Close()
				if len(got) != b {
					t.Fatalf("recovered %d batches after cut at %d, want %d", len(got), at, b)
				}
				for i := 0; i < b; i++ {
					if !sameBatch(got[i], testBatch(i, 2+i%3)) {
						t.Errorf("batch %d corrupted by recovery", i)
					}
				}
				// The torn tail must be gone from disk and the log usable.
				if err := l.Append(testBatch(100, 2)); err != nil {
					t.Fatalf("Append after truncated recovery: %v", err)
				}
				if fi, _ := os.Stat(path); fi.Size() <= bounds[b] && b < len(bounds)-1 && cut != 0 {
					// after truncation to bounds[b] plus a fresh append the
					// file must have grown past the cut point
					t.Errorf("segment did not truncate+regrow: size %d", fi.Size())
				}
			})
		}
	}
}

// TestRecoverRefusesInteriorCorruption flips one byte inside every
// non-final record (header, length field and payload positions) and
// requires ErrCorrupt: the damage sits before acknowledged data, so
// silent truncation would lose committed records.
func TestRecoverRefusesInteriorCorruption(t *testing.T) {
	const nBatches = 5
	for b := 0; b < nBatches-1; b++ { // every record except the final one
		for _, off := range []int64{0, 4, recHdrLen, recHdrLen + 6} {
			t.Run(fmt.Sprintf("batch=%d/off=%d", b, off), func(t *testing.T) {
				dir := t.TempDir()
				path, bounds := segmentLayout(t, dir, nBatches)
				flipByteAt(t, path, bounds[b]+off)
				if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Open over interior corruption: %v, want ErrCorrupt", err)
				}
			})
		}
	}
	// Damage in the file header is interior by definition.
	t.Run("fileheader", func(t *testing.T) {
		dir := t.TempDir()
		path, _ := segmentLayout(t, dir, 2)
		flipByteAt(t, path, 2)
		if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open over corrupt header: %v, want ErrCorrupt", err)
		}
	})
}

// TestRecoverTornFinalRecordChecksum flips a byte inside the FINAL
// record's payload: indistinguishable from a torn in-place write, so it
// is truncated, keeping every earlier batch.
func TestRecoverTornFinalRecordChecksum(t *testing.T) {
	const nBatches = 4
	dir := t.TempDir()
	path, bounds := segmentLayout(t, dir, nBatches)
	flipByteAt(t, path, bounds[nBatches-1]+recHdrLen+2)
	got, l := replayAll(t, dir)
	defer l.Close()
	if len(got) != nBatches-1 {
		t.Fatalf("recovered %d batches, want %d", len(got), nBatches-1)
	}
}

func flipByteAt(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var one [1]byte
	if _, err := f.ReadAt(one[:], off); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0x40
	if _, err := f.WriteAt(one[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentRollAndRecovery drives the log across several segment
// files and recovers the full sequence.
func TestSegmentRollAndRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := l.Append(testBatch(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	names, _ := os.ReadDir(dir)
	if len(names) < 3 {
		t.Fatalf("expected multiple segments at a 256-byte roll threshold, found %d files", len(names))
	}
	got, l2 := replayAll(t, dir)
	defer l2.Close()
	if len(got) != n {
		t.Fatalf("recovered %d batches across segments, want %d", len(got), n)
	}
	for i := range got {
		if !sameBatch(got[i], testBatch(i, 3)) {
			t.Errorf("batch %d differs after multi-segment recovery", i)
		}
	}
}

// TestMissingInteriorSegmentRefused removes a middle segment: a gap in
// the chain is interior corruption.
func TestMissingInteriorSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(Options{Dir: dir, SegmentSize: 256})
	for i := 0; i < 20; i++ {
		l.Append(testBatch(i, 3))
	}
	l.Close()
	if err := os.Remove(filepath.Join(dir, segName(2))); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with missing segment: %v, want ErrCorrupt", err)
	}
}

// TestOpenRefusesLeftoverSnapshot: the log reads segments only, so a
// snapshot file in the state directory (older versions of the log cut
// them) is refused rather than skipped — skipping it would reopen the
// store without the contents the snapshot holds.
func TestOpenRefusesLeftoverSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testBatch(0, 2)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	snap := filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", 2))
	if err := os.WriteFile(snap, snapshotImage(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(Options{Dir: dir})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with a leftover snapshot: %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), filepath.Base(snap)) {
		t.Errorf("error %q does not name the snapshot file", err)
	}
}

// TestSyncNonePolicy checks the relaxed policy still recovers what the
// OS flushed on a clean close.
func TestSyncNonePolicy(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(testBatch(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	got, l2 := replayAll(t, dir)
	defer l2.Close()
	if len(got) != 3 {
		t.Fatalf("recovered %d batches, want 3", len(got))
	}
}

// TestClosedLogRefusesUse pins ErrClosed.
func TestClosedLogRefusesUse(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(Options{Dir: dir})
	l.Close()
	if err := l.Append(testBatch(0, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Append on closed log: %v", err)
	}
	if err := l.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double Close: %v", err)
	}
}

// TestEncodeDecodeRoundTrip exercises the codec directly, including
// negative coordinates, empty configs, empty batches and non-finite
// lambdas.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	batches := [][]Record{
		{},
		{{Config: []int{}, Lambda: 0}},
		{{Config: []int{-1 << 40, 1 << 40, 0}, Lambda: -1e300}},
		testBatch(3, 9),
	}
	for i, b := range batches {
		enc := appendRecord(nil, b)
		kind, dec, err := decodeRecordPayload(enc[recHdrLen:])
		if err != nil {
			t.Fatalf("batch %d: decode: %v", i, err)
		}
		if kind != kindBatch {
			t.Fatalf("batch %d: kind %d", i, kind)
		}
		if !sameBatch(dec, b) {
			t.Errorf("batch %d: round trip differs: %v vs %v", i, dec, b)
		}
	}
}

// TestAllocsAppendBatch is the WAL half of the allocation gate: group
// commit must cost O(1) heap allocations per batch — the reused encode
// buffer, not per-entry work — matching the slab discipline of the
// in-memory bulk path. Enforced by scripts/check_allocs.sh (the gate
// skips itself under -race, whose instrumentation allocates).
func TestAllocsAppendBatch(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation gates are measured without -race (see scripts/check_allocs.sh)")
	}
	dir := t.TempDir()
	// SyncNone keeps the measurement off fsync latency; the sync path
	// adds no allocations, only the syscall.
	l, err := Open(Options{Dir: dir, Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	batch := testBatch(1, 1000)
	if err := l.Append(batch); err != nil { // warm the encode buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := l.Append(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("Append of a 1000-entry batch allocates %.1f objects, want O(1) per batch", allocs)
	}
}

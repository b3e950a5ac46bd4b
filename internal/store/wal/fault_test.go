package wal_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/store/wal"
	"repro/internal/store/wal/faultfs"
)

// The fault matrix drives the log against faultfs, kills it at every
// reachable failure point (write-budget bytes, sync-budget calls,
// power-cut residue lengths), and requires the invariant the whole
// durable store rests on: under SyncBatch, recovery yields EXACTLY the
// acknowledged batches — never fewer (lost commit) and never more
// (phantom commit).
//
// These tests are in-memory and quick per case, but the sweeps multiply;
// -short trims the step sizes so the quick CI tier stays fast while the
// torture tier runs the full matrix under -race.

const faultDir = "state/wal"

func faultBatch(i int) []wal.Record {
	n := 2 + i%3
	b := make([]wal.Record, n)
	for j := range b {
		b[j] = wal.Record{Config: []int{i, j}, Lambda: float64(i*100 + j)}
	}
	return b
}

// runAcked appends batches until one fails, returning how many were
// acknowledged. It also checks the log is fail-stop after the first
// failure: a broken log must not quietly resume acknowledging.
func runAcked(t *testing.T, l *wal.Log, nBatches int) int {
	t.Helper()
	acked := 0
	for i := 0; i < nBatches; i++ {
		if err := l.Append(faultBatch(i)); err != nil {
			if err2 := l.Append(faultBatch(i)); err2 == nil {
				t.Fatal("log acknowledged an append after a failed one (not fail-stop)")
			}
			break
		}
		acked++
	}
	return acked
}

// recoverBatches reopens the log on fs and returns the replayed batches.
func recoverBatches(t *testing.T, fs *faultfs.FS) ([][]wal.Record, *wal.Log) {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: faultDir, FS: fs})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	var got [][]wal.Record
	if err := l.Replay(func(b []wal.Record) error {
		cp := make([]wal.Record, len(b))
		copy(cp, b)
		got = append(got, cp)
		return nil
	}); err != nil {
		t.Fatalf("recovery Replay: %v", err)
	}
	return got, l
}

func checkExactPrefix(t *testing.T, got [][]wal.Record, acked int) {
	t.Helper()
	if len(got) != acked {
		t.Fatalf("recovered %d batches, acknowledged %d", len(got), acked)
	}
	for i, b := range got {
		want := faultBatch(i)
		if len(b) != len(want) {
			t.Fatalf("batch %d: %d records, want %d", i, len(b), len(want))
		}
		for j := range b {
			if b[j].Lambda != want[j].Lambda || b[j].Config[0] != want[j].Config[0] || b[j].Config[1] != want[j].Config[1] {
				t.Fatalf("batch %d record %d differs: %+v", i, j, b[j])
			}
		}
	}
}

// measureScenario runs the workload fault-free and reports its total
// write bytes and sync calls, to size the sweeps.
func measureScenario(t *testing.T, nBatches int) (bytes int64, syncs int) {
	t.Helper()
	fs := faultfs.New()
	l, err := wal.Open(wal.Options{Dir: faultDir, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if got := runAcked(t, l, nBatches); got != nBatches {
		t.Fatalf("fault-free run acknowledged %d/%d", got, nBatches)
	}
	l.Close()
	return fs.BytesWritten(), fs.Syncs()
}

// TestFaultWriteBudgetSweep cuts the byte budget at every offset the
// workload ever writes through (stepped under -short): wherever the
// device stops accepting bytes, the acknowledged prefix must survive a
// power cut exactly.
func TestFaultWriteBudgetSweep(t *testing.T) {
	const nBatches = 8
	total, _ := measureScenario(t, nBatches)
	step := int64(1)
	if testing.Short() {
		step = 7
	}
	for budget := int64(0); budget <= total; budget += step {
		budget := budget
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			fs := faultfs.New()
			fs.LimitWrites(budget)
			l, err := wal.Open(wal.Options{Dir: faultDir, FS: fs})
			acked := 0
			if err == nil {
				acked = runAcked(t, l, nBatches)
				l.Close()
			} else if !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("Open failed with a non-injected error: %v", err)
			}
			fs.PowerCut(0)
			fs.ClearFaults()
			got, l2 := recoverBatches(t, fs)
			defer l2.Close()
			checkExactPrefix(t, got, acked)
		})
	}
}

// TestFaultSyncBudgetSweep fails fsync at every point the workload
// syncs: an append whose fsync failed was never acknowledged, so it must
// not resurface after the cut.
func TestFaultSyncBudgetSweep(t *testing.T) {
	const nBatches = 8
	_, totalSyncs := measureScenario(t, nBatches)
	for budget := 0; budget <= totalSyncs; budget++ {
		budget := budget
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			fs := faultfs.New()
			fs.FailSyncsAfter(budget)
			l, err := wal.Open(wal.Options{Dir: faultDir, FS: fs})
			acked := 0
			if err == nil {
				acked = runAcked(t, l, nBatches)
				l.Close()
			} else if !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("Open failed with a non-injected error: %v", err)
			}
			fs.PowerCut(0)
			fs.ClearFaults()
			got, l2 := recoverBatches(t, fs)
			defer l2.Close()
			checkExactPrefix(t, got, acked)
		})
	}
}

// TestFaultPowerCutResidueSweep power-cuts a healthy log while letting
// 0..N un-fsynced trailing bytes survive as torn-sector residue. Under
// SyncBatch everything appended was synced, so the residue is only ever
// a partially-written unacknowledged record — recovery must truncate it
// and return every acknowledged batch.
func TestFaultPowerCutResidueSweep(t *testing.T) {
	const nBatches = 6
	maxResidue := 200
	step := 1
	if testing.Short() {
		step = 11
	}
	for residue := 0; residue <= maxResidue; residue += step {
		residue := residue
		t.Run(fmt.Sprintf("residue=%d", residue), func(t *testing.T) {
			fs := faultfs.New()
			l, err := wal.Open(wal.Options{Dir: faultDir, FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			acked := runAcked(t, l, nBatches)
			if acked != nBatches {
				t.Fatalf("healthy run acknowledged %d/%d", acked, nBatches)
			}
			// Start one more append under the byte budget. Small residues
			// cut it mid-record (torn tail to truncate); residues past the
			// record size let it commit fully, in which case it was
			// acknowledged and must be recovered like any other batch.
			fs.LimitWrites(int64(residue))
			if err := l.Append(faultBatch(nBatches)); err == nil {
				acked++
			}
			fs.PowerCut(residue)
			fs.ClearFaults()
			got, l2 := recoverBatches(t, fs)
			defer l2.Close()
			checkExactPrefix(t, got, acked)
		})
	}
}

// TestFaultSegmentRollSweep exercises the roll path (small SegmentSize)
// under the write-budget sweep: a batch acknowledged right after a roll
// must survive even though it lives in a file created moments before
// the cut.
func TestFaultSegmentRollSweep(t *testing.T) {
	const nBatches = 12
	// Measure with rolling enabled.
	mfs := faultfs.New()
	l, err := wal.Open(wal.Options{Dir: faultDir, SegmentSize: 128, FS: mfs})
	if err != nil {
		t.Fatal(err)
	}
	if runAcked(t, l, nBatches) != nBatches {
		t.Fatal("fault-free roll run failed")
	}
	l.Close()
	total := mfs.BytesWritten()

	step := int64(1)
	if testing.Short() {
		step = 13
	}
	for budget := int64(0); budget <= total; budget += step {
		budget := budget
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			fs := faultfs.New()
			fs.LimitWrites(budget)
			l, err := wal.Open(wal.Options{Dir: faultDir, SegmentSize: 128, FS: fs})
			acked := 0
			if err == nil {
				acked = runAcked(t, l, nBatches)
				l.Close()
			} else if !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("Open failed with a non-injected error: %v", err)
			}
			fs.PowerCut(0)
			fs.ClearFaults()
			got, l2 := recoverBatches(t, fs)
			defer l2.Close()
			checkExactPrefix(t, got, acked)
		})
	}
}

package store

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/space"
)

// The kill -9 torture test: a child process (this test binary re-execed
// in writer mode, selected by the env var below) opens the durable
// store, recovers, and appends deterministic batches as fast as it can,
// recording each acknowledged batch in a separate fsynced ack file. The
// parent kills it with SIGKILL at a random moment, recovers the store
// in-process, and checks the torn run left a consistent prefix:
//
//   - recovery succeeds (no ErrCorrupt, no checksum panic),
//   - every batch the child acknowledged is present,
//   - the contents are EXACTLY batches 0..k for some k — every config's
//     value, including cross-batch overwrite winners, matches the
//     deterministic schedule; no partial batch is ever visible.

const tortureEnv = "REPRO_STORE_TORTURE_DIR"

const (
	tortureBatchLen = 32
	tortureMaxBatch = 1 << 20
)

func TestMain(m *testing.M) {
	if dir := os.Getenv(tortureEnv); dir != "" {
		tortureChild(dir)
		return
	}
	os.Exit(m.Run())
}

// tortureConfig is the deterministic j-th config of batch k.
func tortureConfig(k, j int) space.Config {
	return space.Config{k + 1, j + 1, (k+j)%17 + 1}
}

// tortureLambda is the value batch k assigns to its j-th config.
func tortureLambda(k, j int) float64 {
	return float64(k)*1e6 + float64(j) + 0.25
}

// tortureBatch builds batch k: tortureBatchLen fresh configs, plus (for
// k > 0) an overwrite of batch k-1's first config — so recovery must
// also get cross-batch overwrite winners right.
func tortureBatch(k int) []Entry {
	b := make([]Entry, 0, tortureBatchLen+1)
	for j := 0; j < tortureBatchLen; j++ {
		b = append(b, Entry{Config: tortureConfig(k, j), Lambda: tortureLambda(k, j)})
	}
	if k > 0 {
		b = append(b, Entry{Config: tortureConfig(k-1, 0), Lambda: -tortureLambda(k, 0)})
	}
	return b
}

// tortureChild is the writer process. It never returns normally under
// torture — the parent SIGKILLs it — but exits 0 if it outruns the cap.
func tortureChild(dir string) {
	s, err := Open(DurabilityOptions{Dir: filepath.Join(dir, "state")})
	if err != nil {
		fmt.Fprintf(os.Stderr, "torture child: recovery failed: %v\n", err)
		os.Exit(7)
	}
	if s.Len()%tortureBatchLen != 0 {
		fmt.Fprintf(os.Stderr, "torture child: recovered Len %d is not a whole number of batches\n", s.Len())
		os.Exit(8)
	}
	k := s.Len() / tortureBatchLen
	ack, err := os.OpenFile(filepath.Join(dir, "acked"), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		fmt.Fprintf(os.Stderr, "torture child: ack file: %v\n", err)
		os.Exit(9)
	}
	for ; k < tortureMaxBatch; k++ {
		if s.AddBatch(tortureBatch(k)) == 0 {
			fmt.Fprintf(os.Stderr, "torture child: batch %d not acknowledged: %v\n", k, s.Err())
			os.Exit(10)
		}
		// The batch is durable (SyncBatch); record the acknowledgement
		// durably too, so the parent can hold us to it.
		if _, err := fmt.Fprintf(ack, "%d\n", k); err != nil {
			os.Exit(12)
		}
		if err := ack.Sync(); err != nil {
			os.Exit(12)
		}
	}
	os.Exit(0)
}

// lastAcked reads the highest batch index the child durably
// acknowledged, or -1.
func lastAcked(t *testing.T, dir string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "acked"))
	if os.IsNotExist(err) {
		return -1
	}
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(string(data))
	if len(lines) == 0 {
		return -1
	}
	n, err := strconv.Atoi(lines[len(lines)-1])
	if err != nil {
		t.Fatalf("ack file: %v", err)
	}
	return n
}

// verifyTortureState recovers the store and checks it is exactly
// batches 0..k-1 for some k >= acked+1. Returns k.
func verifyTortureState(t *testing.T, dir string, acked int) int {
	t.Helper()
	s, err := Open(DurabilityOptions{Dir: filepath.Join(dir, "state")})
	if err != nil {
		t.Fatalf("recovery after kill: %v", err)
	}
	defer s.Close()
	if s.Len()%tortureBatchLen != 0 {
		t.Fatalf("recovered Len %d is not a whole number of %d-entry batches: a batch tore", s.Len(), tortureBatchLen)
	}
	k := s.Len() / tortureBatchLen
	if k < acked+1 {
		t.Fatalf("recovered %d batches but the child acknowledged batch %d: lost a committed batch", k, acked)
	}
	for b := 0; b < k; b++ {
		for j := 0; j < tortureBatchLen; j++ {
			want := tortureLambda(b, j)
			if j == 0 && b+1 < k {
				want = -tortureLambda(b+1, 0) // overwritten by the next batch
			}
			got, ok := s.Lookup(tortureConfig(b, j))
			if !ok || got != want {
				t.Fatalf("batch %d entry %d: got %v,%v want %v", b, j, got, ok, want)
			}
		}
	}
	return k
}

// TestTortureKill9 loops spawn → let it write → SIGKILL → recover →
// verify, 50 times against one state directory. It needs the test
// binary on disk (os.Args[0]) and real SIGKILL, so it skips under
// -short; the torture CI job runs it in full.
func TestTortureKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("kill -9 torture runs in the torture CI job (needs -count=1, no -short)")
	}
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(time.Now().UnixNano()))
	cycles := 50
	progressed := 0
	for cycle := 0; cycle < cycles; cycle++ {
		cmd := exec.Command(exe, "-test.run=^$")
		cmd.Env = append(os.Environ(), tortureEnv+"="+dir)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Let it run long enough to (usually) commit something, short
		// enough to land kills inside appends, rotations and recovery.
		time.Sleep(time.Duration(1+r.Intn(40)) * time.Millisecond)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		err = cmd.Wait()
		if err == nil {
			t.Fatal("torture child exited cleanly before the kill: cap reached or startup raced")
		}
		if ee, ok := err.(*exec.ExitError); ok && ee.ProcessState.ExitCode() > 0 {
			t.Fatalf("torture child failed on its own (exit %d) — recovery or append broke in-process", ee.ProcessState.ExitCode())
		}
		acked := lastAcked(t, dir)
		k := verifyTortureState(t, dir, acked)
		if k > 0 {
			progressed++
		}
		t.Logf("cycle %d: acked=%d recovered=%d batches", cycle, acked, k)
	}
	if progressed == 0 {
		t.Fatal("no cycle made progress; the kill window is too tight to test anything")
	}
}

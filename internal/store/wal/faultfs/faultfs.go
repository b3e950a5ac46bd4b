// Package faultfs is an in-memory, fault-injecting implementation of
// wal.FS for crash testing the write-ahead log.
//
// The model is the adversarial one durability code must be written
// against:
//
//   - Written bytes are NOT durable until the file is fsynced; a power
//     cut discards everything after the last synced offset (optionally
//     keeping a few trailing bytes, to simulate a torn sector).
//   - Created names are NOT durable until their directory is fsynced;
//     a power cut undoes pending creations in reverse order.
//   - Write and sync budgets turn the device read-only mid-operation:
//     writes past the byte budget are short, syncs past the sync budget
//     fail. Both mark every injected error with ErrInjected.
//
// A test drives a wal.Log against one FS, injects faults or calls
// PowerCut, then reopens the log on the same FS and checks that exactly
// the acknowledged batches come back.
package faultfs

import (
	"errors"
	"fmt"
	"os"
	"path"
	"sort"
	"sync"

	"repro/internal/store/wal"
)

// ErrInjected marks every failure produced by the rig, so tests can
// tell injected faults from real bugs.
var ErrInjected = errors.New("faultfs: injected fault")

const unlimited = -1

// FS is the fault-injecting filesystem. The zero value is not usable;
// call New.
type FS struct {
	mu    sync.Mutex
	files map[string]*file
	dirs  map[string]bool
	// pending holds file creations not yet made durable by SyncDir,
	// newest last.
	pending []dirOp

	writeBudget int64 // bytes of Write allowed before faulting; -1 unlimited
	syncBudget  int   // Sync/SyncDir calls allowed before faulting; -1 unlimited

	bytesWritten int64
	syncs        int
	// generation invalidates handles that survive a PowerCut: a real
	// crash kills the process, so a handle from before the cut must not
	// keep writing after it.
	generation uint64
}

type file struct {
	data   []byte
	synced int // durable prefix length
}

// dirOp is one file creation not yet made durable by SyncDir.
type dirOp struct {
	dir  string
	name string // full path created
	prev *file  // the file it replaced, if any
}

// New returns an empty filesystem with no faults armed.
func New() *FS {
	return &FS{
		files:       make(map[string]*file),
		dirs:        make(map[string]bool),
		writeBudget: unlimited,
		syncBudget:  unlimited,
	}
}

// LimitWrites allows n more bytes of Write across all files; the write
// that crosses the budget is short and every later write fails.
func (fs *FS) LimitWrites(n int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.writeBudget = n
}

// FailSyncsAfter allows n more Sync/SyncDir calls (shared budget);
// later ones fail without making anything durable.
func (fs *FS) FailSyncsAfter(n int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.syncBudget = n
}

// ClearFaults disarms all injection so recovery can run clean.
func (fs *FS) ClearFaults() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.writeBudget = unlimited
	fs.syncBudget = unlimited
}

// BytesWritten reports the total bytes accepted by Write, for sizing
// write-budget sweeps.
func (fs *FS) BytesWritten() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.bytesWritten
}

// Syncs reports the total Sync/SyncDir calls served, for sizing
// sync-budget sweeps.
func (fs *FS) Syncs() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.syncs
}

// PowerCut simulates losing power: pending (un-fsynced) file creations
// are undone newest-first, every file is truncated to its
// durable prefix — keeping up to keepUnsynced additional trailing bytes
// per file, the torn-sector residue — and every open handle goes dead.
// The filesystem stays usable for a subsequent recovery.
func (fs *FS) PowerCut(keepUnsynced int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for i := len(fs.pending) - 1; i >= 0; i-- {
		op := fs.pending[i]
		if op.prev != nil {
			fs.files[op.name] = op.prev
		} else {
			delete(fs.files, op.name)
		}
	}
	fs.pending = nil
	for _, f := range fs.files {
		keep := f.synced + keepUnsynced
		if keep < len(f.data) {
			f.data = f.data[:keep]
		}
		f.synced = min(f.synced, len(f.data))
	}
	// Open handles hold *file pointers; bump the generation instead of
	// chasing them: every handle checks its fs generation on use.
	fs.generation++
}

// --- wal.FS implementation ---

func (fs *FS) MkdirAll(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for d := dir; d != "." && d != "/" && d != ""; d = path.Dir(d) {
		fs.dirs[d] = true
	}
	return nil
}

func (fs *FS) ReadDir(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.dirs[dir] {
		return nil, fmt.Errorf("faultfs: %s: %w", dir, os.ErrNotExist)
	}
	var names []string
	for n := range fs.files {
		if path.Dir(n) == dir {
			names = append(names, path.Base(n))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (fs *FS) ReadFile(name string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("faultfs: %s: %w", name, os.ErrNotExist)
	}
	return append([]byte(nil), f.data...), nil
}

func (fs *FS) Create(name string) (wal.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	prev := fs.files[name]
	f := &file{}
	fs.files[name] = f
	fs.pending = append(fs.pending, dirOp{dir: path.Dir(name), name: name, prev: prev})
	return &handle{fs: fs, f: f, gen: fs.generation}, nil
}

func (fs *FS) OpenAppend(name string, size int64) (wal.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("faultfs: %s: %w", name, os.ErrNotExist)
	}
	if int(size) < len(f.data) {
		f.data = f.data[:size]
	}
	f.synced = min(f.synced, len(f.data))
	return &handle{fs: fs, f: f, gen: fs.generation}, nil
}

func (fs *FS) SyncDir(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.chargeSync(); err != nil {
		return err
	}
	kept := fs.pending[:0]
	for _, op := range fs.pending {
		if op.dir != dir {
			kept = append(kept, op)
		}
	}
	fs.pending = kept
	return nil
}

// chargeSync consumes one unit of the sync budget; callers hold fs.mu.
func (fs *FS) chargeSync() error {
	if fs.syncBudget == 0 {
		return fmt.Errorf("%w: sync failed", ErrInjected)
	}
	if fs.syncBudget > 0 {
		fs.syncBudget--
	}
	fs.syncs++
	return nil
}

type handle struct {
	fs     *FS
	f      *file
	gen    uint64
	closed bool
}

func (h *handle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.usable(); err != nil {
		return 0, err
	}
	n := len(p)
	var fault error
	if h.fs.writeBudget >= 0 {
		if int64(n) > h.fs.writeBudget {
			n = int(h.fs.writeBudget)
			fault = fmt.Errorf("%w: short write", ErrInjected)
		}
		h.fs.writeBudget -= int64(n)
	}
	h.f.data = append(h.f.data, p[:n]...)
	h.fs.bytesWritten += int64(n)
	return n, fault
}

func (h *handle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.usable(); err != nil {
		return err
	}
	if err := h.fs.chargeSync(); err != nil {
		return err
	}
	h.f.synced = len(h.f.data)
	return nil
}

func (h *handle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}

// usable rejects operations on closed handles or handles that predate a
// power cut; callers hold fs.mu.
func (h *handle) usable() error {
	if h.closed {
		return fmt.Errorf("faultfs: handle closed: %w", os.ErrClosed)
	}
	if h.gen != h.fs.generation {
		return fmt.Errorf("%w: handle severed by power cut", ErrInjected)
	}
	return nil
}

package wal

import (
	"io"
	"os"
)

// File is the write surface the log needs from one open file. Segments
// are append-only, so reads never go through an open File — recovery
// reads whole files via FS.ReadFile.
type File interface {
	Write(p []byte) (n int, err error)
	// Sync flushes the file's written data to stable storage; a record
	// is acknowledged only after its Sync returns (under SyncBatch).
	Sync() error
	Close() error
}

// FS is the filesystem surface the log runs on. The default
// implementation (DefaultFS) is the operating system; the faultfs
// subpackage provides one that injects short writes, fsync failures and
// power-cut truncation for crash testing. All names are full paths
// except ReadDir's results, which are base names.
type FS interface {
	MkdirAll(dir string) error
	ReadDir(dir string) ([]string, error)
	ReadFile(name string) ([]byte, error)
	// Create opens a fresh file for writing, truncating any existing one.
	Create(name string) (File, error)
	// OpenAppend opens an existing file for appending after truncating it
	// to size bytes — how recovery discards a torn tail before reuse.
	OpenAppend(name string, size int64) (File, error)
	// SyncDir flushes directory metadata so created names survive a
	// crash.
	SyncDir(dir string) error
}

// DefaultFS returns the operating-system filesystem.
func DefaultFS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names, nil
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (osFS) OpenAppend(name string, size int64) (File, error) {
	f, err := os.OpenFile(name, os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

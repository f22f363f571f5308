package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
)

// AtomicFile is a file that appears at its destination path only once
// it is complete: bytes go to a hidden temp file in the destination's
// directory, and only an explicit Commit publishes them by syncing,
// closing and renaming the temp file, in that order. A crash, a write
// error or an abandoned write therefore never leaves a truncated file
// where readers expect a valid one: the destination either holds every
// byte written before Commit or is left as it was.
type AtomicFile struct {
	f    *os.File
	path string // destination; f.Name() is the temp path
	done bool
}

// NewAtomicFile creates the temp file next to path (same directory, so
// the final rename cannot cross filesystems).
func NewAtomicFile(path string) (*AtomicFile, error) {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("atomic file: %w", err)
	}
	return &AtomicFile{f: f, path: path}, nil
}

// Write implements io.Writer, appending to the temp file.
func (a *AtomicFile) Write(p []byte) (int, error) {
	if a.done {
		return 0, fmt.Errorf("write to committed or aborted atomic file %s", a.path)
	}
	return a.f.Write(p)
}

// Commit publishes the temp file at the destination path: it syncs,
// closes and renames in that order, so the file visible at the path is
// exactly the bytes written and survives a crash right after the
// rename. On failure the temp file is removed and the destination is
// left untouched.
func (a *AtomicFile) Commit() error {
	if a.done {
		return fmt.Errorf("double Commit/Abort of atomic file %s", a.path)
	}
	a.done = true
	err := a.f.Sync()
	if cerr := a.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(a.f.Name(), a.path)
	}
	if err != nil {
		os.Remove(a.f.Name())
		return fmt.Errorf("atomic file: %w", err)
	}
	return nil
}

// Abort discards the temp file without touching the destination. It is
// a no-op after Commit (or a prior Abort), so "defer af.Abort()" is the
// cleanup idiom for every early-exit path.
func (a *AtomicFile) Abort() {
	if a.done {
		return
	}
	a.done = true
	a.f.Close()
	os.Remove(a.f.Name())
}

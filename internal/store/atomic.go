package store

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// AtomicFile is the one way a file is published in this repository: the
// bytes go to a 0600 temp file <base>.tmp-* beside the final path, and Close
// fsyncs it, renames it over the path and fsyncs the directory, so a crash or
// an error at any point leaves either the previous file or the new one,
// complete, and at most a stray temp file. 0600 matters: a VC's init file
// carries its signing and link keys.
type AtomicFile struct {
	*bufio.Writer
	path string
	f    *os.File
}

// CreateAtomic starts an atomic write of path.
func CreateAtomic(path string) (*AtomicFile, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("store: temp for %s: %w", path, err)
	}
	return &AtomicFile{Writer: bufio.NewWriterSize(f, 64<<10), path: path, f: f}, nil
}

// Close publishes the file at its path. On an error before the rename the
// temp file is removed and the path is untouched; an error syncing the
// directory after the rename is returned too, since the rename may not
// survive a power loss.
func (a *AtomicFile) Close() error {
	err := a.Flush()
	if err == nil {
		err = a.f.Sync()
	}
	if cerr := a.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(a.f.Name(), a.path)
	}
	if err != nil {
		_ = os.Remove(a.f.Name())
		return fmt.Errorf("store: publish %s: %w", a.path, err)
	}
	d, err := os.Open(filepath.Dir(a.path))
	if err == nil {
		err = d.Sync()
		_ = d.Close()
	}
	if err != nil {
		return fmt.Errorf("store: sync directory of %s: %w", a.path, err)
	}
	return nil
}

// Abort discards the write and leaves the path untouched.
func (a *AtomicFile) Abort() {
	_ = a.f.Close()
	_ = os.Remove(a.f.Name())
}

// WriteFileAtomic publishes b at path through an AtomicFile.
func WriteFileAtomic(path string, b []byte) error {
	a, err := CreateAtomic(path)
	if err != nil {
		return err
	}
	_, _ = a.Write(b) // a write error sticks and fails Close
	return a.Close()
}

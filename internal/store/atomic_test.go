package store

import (
	"os"
	"path/filepath"
	"testing"
)

// TestAtomicFileTornWriteSurvives is the torn-setup regression: a writer
// that opened the destination with os.Create and wrote into it directly left
// a truncated file at the final path when it failed mid-write (or crashed),
// and a VC booting from it would fail or worse. A write through AtomicFile
// that fails part way — here one aborted after some bytes, and a snapshot
// refused for an oversize record — leaves the previous file byte-intact, and
// no debris.
func TestAtomicFileTornWriteSurvives(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "init.bin")
	want := []byte("first file, complete")
	if err := WriteFileAtomic(path, want); err != nil {
		t.Fatal(err)
	}

	f, err := CreateAtomic(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("half of a second")); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Abort()
	if err := WriteWALFile(path, [][]byte{make([]byte, MaxWALRecord+1)}); err == nil {
		t.Fatal("an oversize snapshot record was written")
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("previous file must survive a failed rewrite: %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("failed rewrite left %q, want %q", got, want)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("aborted write left debris: %v (%v)", entries, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o600 {
		t.Fatalf("published file mode %v, want 0600", fi.Mode().Perm())
	}
}

// TestAtomicFileReplacesAtomically: a successful rewrite fully replaces the
// previous contents (no append, no partial overlay).
func TestAtomicFileReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "init.bin")
	if err := WriteFileAtomic(path, []byte("old and longer than the new one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("got %q, want %q", got, "new")
	}
}

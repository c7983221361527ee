package httpapi

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"ddemos/internal/ballot"
	"ddemos/internal/ea"
)

// Streaming init payloads.
//
// EA payloads are gob streams split into values: a slim header value first
// (the init struct with Ballots nil, or BallotsStreamHeader for the voter
// pool), then one value per ballot in serial order. A reader can consume
// them one at a time; a writer emits them as setup generates them. The
// retired layout held the whole pool in one gob value (a bare
// []*ballot.Ballot in ballots.gob, BBInit/TrusteeInit with Ballots filled);
// the readers refuse it by name.

// BallotsStreamMagic marks a streamed ballots.gob.
const BallotsStreamMagic = "ddemos-ballots-stream-v1"

// BallotsStreamHeader is the first gob value of a streamed ballots.gob;
// NumBallots *ballot.Ballot values follow in serial order.
type BallotsStreamHeader struct {
	Magic      string
	NumBallots int
}

// GobStream writes a sequence of gob values to a file atomically: values
// are encoded to a temp file in the target directory and Close fsyncs it,
// renames it over the final path, and syncs the directory. A crash before
// Close leaves at most a stray temp file, never a torn payload.
type GobStream struct {
	path    string
	tmpName string
	f       *os.File
	bw      *bufio.Writer
	enc     *gob.Encoder
}

// CreateGobStream starts an atomic gob stream destined for path.
func CreateGobStream(path string) (*GobStream, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("httpapi: temp for %s: %w", path, err)
	}
	bw := bufio.NewWriterSize(tmp, 1<<20)
	return &GobStream{path: path, tmpName: tmp.Name(), f: tmp, bw: bw, enc: gob.NewEncoder(bw)}, nil
}

// Encode appends one gob value to the stream.
func (w *GobStream) Encode(v any) error {
	if err := w.enc.Encode(v); err != nil {
		return fmt.Errorf("httpapi: encode %s: %w", w.path, err)
	}
	return nil
}

// Close flushes, fsyncs, and atomically publishes the file at its final
// path.
func (w *GobStream) Close() error {
	if err := w.bw.Flush(); err != nil {
		w.Abort()
		return fmt.Errorf("httpapi: flush %s: %w", w.path, err)
	}
	if err := w.f.Sync(); err != nil {
		w.Abort()
		return fmt.Errorf("httpapi: sync %s: %w", w.path, err)
	}
	if err := w.f.Close(); err != nil {
		_ = os.Remove(w.tmpName)
		return fmt.Errorf("httpapi: close %s: %w", w.path, err)
	}
	if err := os.Rename(w.tmpName, w.path); err != nil {
		_ = os.Remove(w.tmpName)
		return fmt.Errorf("httpapi: rename %s: %w", w.path, err)
	}
	// Sync the directory so the rename itself survives power loss.
	if d, err := os.Open(filepath.Dir(w.path)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// Abort discards the stream without publishing anything.
func (w *GobStream) Abort() {
	_ = w.f.Close()
	_ = os.Remove(w.tmpName)
}

// WriteGobFile serializes v to path atomically: the value is encoded to a
// temp file in the same directory, fsynced, and renamed over path (then the
// directory is synced), so a crash or full disk mid-write can never leave a
// torn payload behind — either the old file survives intact or the new one
// is complete. Same pattern as store.WriteWALFile.
func WriteGobFile(path string, v any) error {
	w, err := CreateGobStream(path)
	if err != nil {
		return err
	}
	if err := w.Encode(v); err != nil {
		w.Abort()
		return err
	}
	return w.Close()
}

// ReadGobFile deserializes path into v.
func ReadGobFile(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("httpapi: open %s: %w", path, err)
	}
	defer func() { _ = f.Close() }()
	if err := gob.NewDecoder(f).Decode(v); err != nil {
		return fmt.Errorf("httpapi: decode %s: %w", path, err)
	}
	return nil
}

// errWholePool refuses the retired payload layout that held a whole ballot
// pool in one gob value.
var errWholePool = errors.New("a whole-pool payload from an older ddemos-ea is not read: re-run ddemos-ea")

// readStream reads the streamed payload at path: its header value into hdr,
// then count() values of V. count runs once the header is decoded and may
// refuse it.
func readStream[V any](path string, hdr any, count func() (int, error)) ([]V, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("httpapi: open %s: %w", path, err)
	}
	defer func() { _ = f.Close() }()
	dec := gob.NewDecoder(bufio.NewReaderSize(f, 1<<20))
	if err := dec.Decode(hdr); err != nil {
		return nil, fmt.Errorf("httpapi: decode %s: %w; if an older ddemos-ea wrote it, re-run ddemos-ea", path, err)
	}
	n, err := count()
	if err == nil && n < 0 {
		err = fmt.Errorf("header promises %d values", n)
	}
	if err != nil {
		return nil, fmt.Errorf("httpapi: %s: %w", path, err)
	}
	vals := make([]V, n)
	for i := range vals {
		if err := dec.Decode(&vals[i]); err != nil {
			return nil, fmt.Errorf("httpapi: decode %s value %d/%d: %w", path, i+1, n, err)
		}
	}
	return vals, nil
}

// ReadBallotsFile loads a voter ballot pool: a BallotsStreamHeader, then one
// value per ballot.
func ReadBallotsFile(path string) ([]*ballot.Ballot, error) {
	var hdr BallotsStreamHeader
	return readStream[*ballot.Ballot](path, &hdr, func() (int, error) {
		if hdr.Magic != BallotsStreamMagic {
			return 0, errWholePool
		}
		return hdr.NumBallots, nil
	})
}

// ReadInitFile loads a streamed BB or trustee init payload (ea.BBInit,
// ea.TrusteeInit) into init: the slim struct, then one B value per ballot of
// *manifest into *ballots. manifest and ballots point into init. A struct
// that carries its ballots inline is the retired whole-pool layout and is
// refused.
func ReadInitFile[B any](path string, init any, manifest *ea.Manifest, ballots *[]B) error {
	vals, err := readStream[B](path, init, func() (int, error) {
		if len(*ballots) > 0 {
			return 0, errWholePool
		}
		return manifest.NumBallots, nil
	})
	*ballots = vals
	return err
}

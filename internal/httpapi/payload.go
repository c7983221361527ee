package httpapi

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ddemos/internal/ballot"
	"ddemos/internal/ea"
)

// Streaming init payloads.
//
// Legacy EA payloads are one gob value holding the whole pool
// ([]*ballot.Ballot in ballots.gob; BBInit/TrusteeInit with populated
// Ballots), so both ends need O(pool) memory just to move data. Streamed
// payloads keep the gob stream but split it into values: a slim header
// value first (the init struct with Ballots nil, or BallotsStreamHeader for
// the voter pool), then one value per ballot in serial order. A reader can
// consume them one at a time; a writer emits them as setup generates them.
//
// BBInit/TrusteeInit readers sniff the format for free: decode the struct,
// and if Ballots is empty while the manifest says the pool is not, the
// per-ballot values follow on the stream. ballots.gob needs an explicit
// header because its legacy form is a bare slice.

// BallotsStreamMagic marks a streamed ballots.gob; legacy files hold a bare
// []*ballot.Ballot gob value instead.
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

// ReadBallotsFile loads a voter ballot pool from either format: a streamed
// file (BallotsStreamHeader + per-ballot values) or a legacy bare
// []*ballot.Ballot gob.
func ReadBallotsFile(path string) ([]*ballot.Ballot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("httpapi: open %s: %w", path, err)
	}
	defer func() { _ = f.Close() }()
	dec := gob.NewDecoder(bufio.NewReaderSize(f, 1<<20))
	var hdr BallotsStreamHeader
	if err := dec.Decode(&hdr); err == nil && hdr.Magic == BallotsStreamMagic {
		ballots := make([]*ballot.Ballot, 0, hdr.NumBallots)
		for i := 0; i < hdr.NumBallots; i++ {
			var b ballot.Ballot
			if err := dec.Decode(&b); err != nil {
				return nil, fmt.Errorf("httpapi: decode %s ballot %d/%d: %w", path, i+1, hdr.NumBallots, err)
			}
			ballots = append(ballots, &b)
		}
		return ballots, nil
	}
	// Legacy format: one gob value holding the whole slice.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("httpapi: rewind %s: %w", path, err)
	}
	var ballots []*ballot.Ballot
	if err := gob.NewDecoder(bufio.NewReaderSize(f, 1<<20)).Decode(&ballots); err != nil {
		return nil, fmt.Errorf("httpapi: decode %s: %w", path, err)
	}
	return ballots, nil
}

// ReadBBInitFile loads a BB initialization payload from either format. A
// streamed file carries the slim BBInit first and NumBallots BBBallot
// values after it; a legacy file carries everything in the struct.
func ReadBBInitFile(path string) (*ea.BBInit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("httpapi: open %s: %w", path, err)
	}
	defer func() { _ = f.Close() }()
	dec := gob.NewDecoder(bufio.NewReaderSize(f, 1<<20))
	var init ea.BBInit
	if err := dec.Decode(&init); err != nil {
		return nil, fmt.Errorf("httpapi: decode %s: %w", path, err)
	}
	if len(init.Ballots) == 0 && init.Manifest.NumBallots > 0 {
		init.Ballots = make([]ea.BBBallot, 0, init.Manifest.NumBallots)
		for i := 0; i < init.Manifest.NumBallots; i++ {
			var b ea.BBBallot
			if err := dec.Decode(&b); err != nil {
				return nil, fmt.Errorf("httpapi: decode %s bb ballot %d/%d: %w", path, i+1, init.Manifest.NumBallots, err)
			}
			init.Ballots = append(init.Ballots, b)
		}
	}
	return &init, nil
}

// ReadTrusteeInitFile loads a trustee initialization payload from either
// format (same convention as ReadBBInitFile).
func ReadTrusteeInitFile(path string) (*ea.TrusteeInit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("httpapi: open %s: %w", path, err)
	}
	defer func() { _ = f.Close() }()
	dec := gob.NewDecoder(bufio.NewReaderSize(f, 1<<20))
	var init ea.TrusteeInit
	if err := dec.Decode(&init); err != nil {
		return nil, fmt.Errorf("httpapi: decode %s: %w", path, err)
	}
	if len(init.Ballots) == 0 && init.Manifest.NumBallots > 0 {
		init.Ballots = make([]ea.TrusteeBallot, 0, init.Manifest.NumBallots)
		for i := 0; i < init.Manifest.NumBallots; i++ {
			var b ea.TrusteeBallot
			if err := dec.Decode(&b); err != nil {
				return nil, fmt.Errorf("httpapi: decode %s trustee ballot %d/%d: %w", path, i+1, init.Manifest.NumBallots, err)
			}
			init.Ballots = append(init.Ballots, b)
		}
	}
	return &init, nil
}

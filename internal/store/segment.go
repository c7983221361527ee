package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Segmented is the millions-of-ballots ballot store: the pool is sharded by
// serial range across fixed-record segment files (ballots-<k>.seg, each a
// valid flat store for its range) described by a MANIFEST.json. Lookups
// stay one positional read — segment index is computed, not searched — and
// EA setup can stream-write segments through a Writer without ever holding
// the whole pool in memory.
//
// Directory layout:
//
//	MANIFEST.json    segment directory (written last, atomically)
//	ballots-0.seg    serials [FirstSerial, FirstSerial+SegmentBallots)
//	ballots-1.seg    the next SegmentBallots serials
//	...              (only the final segment may be short)
//
// A crash while building leaves no manifest, so a partial directory fails
// to open instead of serving a truncated pool.
type Segmented struct {
	segs        []*Disk // index k serves serials [first+k*segBallots, ...)
	m           int
	firstSerial uint64
	count       uint64
	segBallots  uint64
}

var _ Store = (*Segmented)(nil)

// ManifestName is the segment-directory manifest file.
const ManifestName = "MANIFEST.json"

// DefaultSegmentBallots is the Writer's default ballots-per-segment.
const DefaultSegmentBallots = 100_000

// manifest is the serialized form of MANIFEST.json.
type manifest struct {
	Version        int               `json:"version"`
	Options        int               `json:"m"`
	FirstSerial    uint64            `json:"first_serial"`
	Count          uint64            `json:"count"`
	SegmentBallots uint64            `json:"segment_ballots"`
	Segments       []manifestSegment `json:"segments"`
}

type manifestSegment struct {
	File        string `json:"file"`
	FirstSerial uint64 `json:"first_serial"`
	Count       uint64 `json:"count"`
}

// OpenSegmented opens a segment directory written by a Writer.
func OpenSegmented(dir string) (*Segmented, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("store: segment manifest: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("store: segment manifest %s: %w", dir, err)
	}
	if man.Version != 1 {
		return nil, fmt.Errorf("store: unsupported segment manifest version %d", man.Version)
	}
	if man.SegmentBallots == 0 || len(man.Segments) == 0 {
		return nil, fmt.Errorf("store: segment manifest %s: empty", dir)
	}
	sort.Slice(man.Segments, func(i, j int) bool {
		return man.Segments[i].FirstSerial < man.Segments[j].FirstSerial
	})
	s := &Segmented{
		m:           man.Options,
		firstSerial: man.FirstSerial,
		count:       man.Count,
		segBallots:  man.SegmentBallots,
	}
	var total uint64
	next := man.FirstSerial
	for i, ms := range man.Segments {
		// Every segment but the last must hold exactly SegmentBallots, so
		// Get can compute the segment index instead of searching.
		if ms.FirstSerial != next {
			s.closeAll()
			return nil, fmt.Errorf("store: segment %s starts at serial %d, want %d (ranges must be dense)",
				ms.File, ms.FirstSerial, next)
		}
		// Get computes the owning segment as (serial-first)/SegmentBallots,
		// so every segment must hold exactly SegmentBallots records except
		// the last, which must hold between 1 and SegmentBallots — a longer
		// (or empty) tail would index past the segment slice at read time.
		if ms.Count != man.SegmentBallots && i != len(man.Segments)-1 {
			s.closeAll()
			return nil, fmt.Errorf("store: segment %s holds %d ballots, want %d (only the last segment may be short)",
				ms.File, ms.Count, man.SegmentBallots)
		}
		if ms.Count == 0 || ms.Count > man.SegmentBallots {
			s.closeAll()
			return nil, fmt.Errorf("store: segment %s holds %d ballots, want 1..%d",
				ms.File, ms.Count, man.SegmentBallots)
		}
		d, err := OpenDisk(filepath.Join(dir, ms.File))
		if err != nil {
			s.closeAll()
			return nil, err
		}
		if d.m != man.Options || d.firstSerial != ms.FirstSerial || d.count != ms.Count ||
			(len(s.segs) > 0 && d.path != s.segs[0].path) {
			_ = d.Close()
			s.closeAll()
			return nil, fmt.Errorf("store: segment %s header (m=%d first=%d count=%d path=%d) disagrees with manifest (m=%d first=%d count=%d) or segment 0",
				ms.File, d.m, d.firstSerial, d.count, d.path, man.Options, ms.FirstSerial, ms.Count)
		}
		s.segs = append(s.segs, d)
		next += ms.Count
		total += ms.Count
	}
	if total != man.Count {
		s.closeAll()
		return nil, fmt.Errorf("store: segments hold %d ballots, manifest promises %d", total, man.Count)
	}
	return s, nil
}

func (s *Segmented) closeAll() {
	for _, d := range s.segs {
		_ = d.Close()
	}
}

// Get implements Store: the owning segment is computed from the serial (all
// segments but the last are full), then the segment performs one positional
// read. Concurrency and Close-racing safety are the per-segment Disk's.
func (s *Segmented) Get(serial uint64) (*BallotData, error) {
	if serial < s.firstSerial || serial >= s.firstSerial+s.count {
		return nil, fmt.Errorf("%w: serial %d", ErrNotFound, serial)
	}
	return s.segs[(serial-s.firstSerial)/s.segBallots].Get(serial)
}

// Count implements Store.
func (s *Segmented) Count() int { return int(s.count) } //nolint:gosec // bounded by open validation

// Segments returns the number of segment files.
func (s *Segmented) Segments() int { return len(s.segs) }

// Close implements Store, closing every segment.
func (s *Segmented) Close() error {
	var first error
	for _, d := range s.segs {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WriterOptions configures a streaming segment-store builder.
type WriterOptions struct {
	// SegmentBallots is the capacity of every segment but the last
	// (default DefaultSegmentBallots).
	SegmentBallots int
	// ClearStale removes leftover build debris (ballots-*.seg files and a
	// manifest temp file, as left by a crash mid-build) from the directory
	// instead of refusing it. A directory with a complete manifest is
	// refused either way — it is a live store, not debris.
	ClearStale bool
}

// Writer streams a ballot pool into a segment directory: Append writes each
// ballot straight through a buffered segment file and rotates at
// SegmentBallots, so building an N-ballot store needs O(segment) memory,
// not O(N) — EA setup can emit ballots as it generates them. Finish syncs
// the last segment and atomically writes the manifest; a crash before
// Finish leaves an unopenable (clearly partial) directory.
//
// Ballots must arrive with dense ascending serials and a consistent option
// count and NodePath length. Writer is not safe for concurrent use.
type Writer struct {
	dir        string
	segBallots int

	m     int    // options per part, fixed by the first ballot
	path  int    // NodePath hashes, fixed by the first ballot
	first uint64 // first serial of the pool
	next  uint64 // next expected serial
	rec   []byte // reusable record buffer

	cur      *os.File // current segment (nil before first Append / after Finish)
	curFirst uint64
	curCount uint64
	segments []manifestSegment
	done     bool
}

// NewWriter starts a streaming build into dir (created if missing). The
// directory must not already contain a manifest, and — unless
// WriterOptions.ClearStale is set — must not contain leftover segment files
// from a crashed build either: rebuilding into a dirty directory would mix
// stale and fresh ballots-<k>.seg files, and a manifest written over them
// could then describe segments it never produced.
func NewWriter(dir string, opts WriterOptions) (*Writer, error) {
	if opts.SegmentBallots <= 0 {
		opts.SegmentBallots = DefaultSegmentBallots
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: segment dir: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		return nil, fmt.Errorf("store: %s already holds a segment store", dir)
	}
	stale, err := staleBuildFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(stale) > 0 {
		if !opts.ClearStale {
			return nil, fmt.Errorf("store: %s holds %d leftover segment file(s) from an interrupted build (e.g. %s); remove them or set WriterOptions.ClearStale",
				dir, len(stale), filepath.Base(stale[0]))
		}
		for _, path := range stale {
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("store: clearing stale build file: %w", err)
			}
		}
	}
	return &Writer{dir: dir, segBallots: opts.SegmentBallots}, nil
}

// staleBuildFiles lists debris a crashed Writer can leave in dir: segment
// files without a manifest, and an orphaned manifest temp file.
func staleBuildFiles(dir string) ([]string, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "ballots-*.seg"))
	if err != nil {
		return nil, fmt.Errorf("store: scanning segment dir: %w", err)
	}
	tmps, err := filepath.Glob(filepath.Join(dir, ManifestName+".tmp*"))
	if err != nil {
		return nil, fmt.Errorf("store: scanning segment dir: %w", err)
	}
	return append(segs, tmps...), nil
}

// Append adds the next ballot to the store.
func (w *Writer) Append(b *BallotData) error {
	if w.done {
		return fmt.Errorf("store: writer already finished")
	}
	if w.cur == nil && w.next == 0 {
		// First ballot fixes the geometry.
		m, path, err := ballotGeometry(b)
		if err != nil {
			return err
		}
		w.m, w.path = m, path
		w.first = b.Serial
		w.next = b.Serial
		w.rec = make([]byte, recordSize(2*w.m, w.path))
	}
	if b.Serial != w.next {
		return fmt.Errorf("store: serial %d not dense (want %d)", b.Serial, w.next)
	}
	if err := checkGeometry(b, w.m, w.path); err != nil {
		return err
	}
	if w.cur == nil {
		if err := w.openSegment(b.Serial); err != nil {
			return err
		}
	}
	encodeRecord(w.rec, b, w.m)
	if _, err := w.cur.Write(w.rec); err != nil {
		return fmt.Errorf("store: write ballot %d: %w", b.Serial, err)
	}
	w.next++
	w.curCount++
	if w.curCount == uint64(w.segBallots) { //nolint:gosec // positive
		return w.closeSegment()
	}
	return nil
}

// openSegment starts segment file len(w.segments), headered for first.
func (w *Writer) openSegment(first uint64) error {
	name := fmt.Sprintf("ballots-%d.seg", len(w.segments))
	f, err := os.Create(filepath.Join(w.dir, name))
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	// The count field is patched in closeSegment once known; until the
	// manifest lands the directory is unopenable either way.
	if _, err := f.Write(encodeDiskHeader(w.m, w.path, first, 0)); err != nil {
		_ = f.Close()
		return fmt.Errorf("store: segment header: %w", err)
	}
	w.cur, w.curFirst, w.curCount = f, first, 0
	return nil
}

// closeSegment patches the header count, syncs and records the segment.
func (w *Writer) closeSegment() error {
	hdr := encodeDiskHeader(w.m, w.path, w.curFirst, w.curCount)
	if _, err := w.cur.WriteAt(hdr, 0); err != nil {
		_ = w.cur.Close()
		return fmt.Errorf("store: patch segment header: %w", err)
	}
	if err := w.cur.Sync(); err != nil {
		_ = w.cur.Close()
		return fmt.Errorf("store: sync segment: %w", err)
	}
	if err := w.cur.Close(); err != nil {
		return fmt.Errorf("store: close segment: %w", err)
	}
	w.segments = append(w.segments, manifestSegment{
		File:        fmt.Sprintf("ballots-%d.seg", len(w.segments)),
		FirstSerial: w.curFirst,
		Count:       w.curCount,
	})
	w.cur = nil
	return nil
}

// Finish seals the last segment, writes the manifest atomically and opens
// the finished store.
func (w *Writer) Finish() (*Segmented, error) {
	if w.done {
		return nil, fmt.Errorf("store: writer already finished")
	}
	w.done = true
	if w.cur != nil {
		if err := w.closeSegment(); err != nil {
			return nil, err
		}
	}
	if len(w.segments) == 0 {
		return nil, fmt.Errorf("store: no ballots written")
	}
	man := manifest{
		Version:        1,
		Options:        w.m,
		FirstSerial:    w.first,
		Count:          w.next - w.first,
		SegmentBallots: uint64(w.segBallots), //nolint:gosec // positive
		Segments:       w.segments,
	}
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("store: segment manifest: %w", err)
	}
	// Published atomically: the manifest appears complete or not at all.
	if err := WriteFileAtomic(filepath.Join(w.dir, ManifestName), append(raw, '\n')); err != nil {
		return nil, fmt.Errorf("store: segment manifest: %w", err)
	}
	return OpenSegmented(w.dir)
}

// Abort discards an unfinished build's open segment file handle. Partial
// segment files are left behind (the missing manifest keeps the directory
// unopenable); callers remove the directory to reclaim space.
func (w *Writer) Abort() {
	w.done = true
	if w.cur != nil {
		_ = w.cur.Close()
		w.cur = nil
	}
}

// CreateSegmented stream-writes ballots (dense ascending serials) into a
// segment directory — the convenience form of Writer for pools already in
// memory.
func CreateSegmented(dir string, ballots []*BallotData, opts WriterOptions) (*Segmented, error) {
	w, err := NewWriter(dir, opts)
	if err != nil {
		return nil, err
	}
	for _, b := range ballots {
		if err := w.Append(b); err != nil {
			w.Abort()
			return nil, err
		}
	}
	return w.Finish()
}

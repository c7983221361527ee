package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// fabricateBallots synthesizes a pool of n dense-serial ballots (m options
// per part) with deterministic distinguishable contents — the store layer
// never interprets the line payloads, so tests need no real crypto.
func fabricateBallots(first uint64, n, m int) []*BallotData {
	out := make([]*BallotData, n)
	for i := range out {
		b := &BallotData{Serial: first + uint64(i)}
		for part := 0; part < 2; part++ {
			b.Lines[part] = make([]Line, m)
			for row := 0; row < m; row++ {
				l := &b.Lines[part][row]
				binary.BigEndian.PutUint64(l.Hash[:], b.Serial)
				l.Hash[8] = byte(part)
				l.Hash[9] = byte(row)
				binary.BigEndian.PutUint64(l.Salt[:], b.Serial^0xDEAD)
				binary.BigEndian.PutUint64(l.Share[:], b.Serial*31+uint64(row))
			}
		}
		binary.BigEndian.PutUint64(b.ShareSig[:], b.Serial*37)
		b.NodePath = make([]byte, 2*hashSize)
		binary.BigEndian.PutUint64(b.NodePath, b.Serial*41)
		binary.BigEndian.PutUint64(b.NodePath[hashSize:], b.Serial*43)
		out[i] = b
	}
	return out
}

func checkBallot(t *testing.T, st Store, want *BallotData) {
	t.Helper()
	got, err := st.Get(want.Serial)
	if err != nil {
		t.Fatalf("Get(%d): %v", want.Serial, err)
	}
	if got.Serial != want.Serial {
		t.Fatalf("Get(%d) returned serial %d", want.Serial, got.Serial)
	}
	if got.ShareSig != want.ShareSig || !bytes.Equal(got.NodePath, want.NodePath) {
		t.Fatalf("Get(%d) returned another signature or node path", want.Serial)
	}
	for part := 0; part < 2; part++ {
		if len(got.Lines[part]) != len(want.Lines[part]) {
			t.Fatalf("serial %d part %d: %d lines, want %d",
				want.Serial, part, len(got.Lines[part]), len(want.Lines[part]))
		}
		for row := range want.Lines[part] {
			if got.Lines[part][row] != want.Lines[part][row] {
				t.Fatalf("serial %d part %d row %d differs", want.Serial, part, row)
			}
		}
	}
}

// TestSegmentedRoundTrip100k streams a >=100k-ballot pool through the
// Writer (small segments force many rotations), reopens the directory and
// spot-checks every region including both segment boundaries.
func TestSegmentedRoundTrip100k(t *testing.T) {
	const n, m, segBallots = 100_000, 2, 8192
	ballots := fabricateBallots(1, n, m)
	dir := t.TempDir()
	w, err := NewWriter(dir, WriterOptions{SegmentBallots: segBallots})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range ballots {
		if err := w.Append(b); err != nil {
			t.Fatalf("append %d: %v", b.Serial, err)
		}
	}
	s, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = OpenSegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if s.Count() != n {
		t.Fatalf("Count = %d, want %d", s.Count(), n)
	}
	wantSegs := (n + segBallots - 1) / segBallots
	if s.Segments() != wantSegs {
		t.Fatalf("Segments = %d, want %d", s.Segments(), wantSegs)
	}
	// Every ballot, full sweep — the round trip is the point of the test.
	for _, b := range ballots {
		checkBallot(t, s, b)
	}
	if _, err := s.Get(0); err == nil {
		t.Fatal("Get(0) should fail below the first serial")
	}
	if _, err := s.Get(n + 1); err == nil {
		t.Fatal("Get past the pool should fail")
	}
}

// TestSegmentFilesAreFlatStores opens an individual segment file with
// OpenDisk: the segment format is the flat format for its range, so the
// flat-file tooling keeps working on shards.
func TestSegmentFilesAreFlatStores(t *testing.T) {
	ballots := fabricateBallots(1, 100, 3)
	dir := t.TempDir()
	if s, err := CreateSegmented(dir, ballots, WriterOptions{SegmentBallots: 40}); err != nil {
		t.Fatal(err)
	} else {
		_ = s.Close()
	}
	// Middle segment holds serials 41..80.
	d, err := OpenDisk(filepath.Join(dir, "ballots-1.seg"))
	if err != nil {
		t.Fatalf("segment not a flat store: %v", err)
	}
	defer func() { _ = d.Close() }()
	if d.Count() != 40 {
		t.Fatalf("segment count = %d, want 40", d.Count())
	}
	checkBallot(t, d, ballots[40])
	checkBallot(t, d, ballots[79])
	if _, err := d.Get(81); err == nil {
		t.Fatal("segment served a serial outside its range")
	}
}

// TestOpenDiskFlatFile round-trips the single flat file — that path must
// keep working alongside the segmented store.
func TestOpenDiskFlatFile(t *testing.T) {
	ballots := fabricateBallots(7, 500, 4)
	path := filepath.Join(t.TempDir(), "flat.store")
	d, err := CreateDisk(path, ballots)
	if err != nil {
		t.Fatal(err)
	}
	_ = d.Close()
	d, err = OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Close() }()
	checkBallot(t, d, ballots[0])
	checkBallot(t, d, ballots[499])
}

// TestSegmentedCrashBeforeManifest: a build that dies before Finish leaves
// an unopenable directory, not a silently truncated pool.
func TestSegmentedCrashBeforeManifest(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, WriterOptions{SegmentBallots: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range fabricateBallots(1, 25, 2) {
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	w.Abort() // no Finish: simulated crash
	if _, err := OpenSegmented(dir); err == nil {
		t.Fatal("partial build without manifest must not open")
	}
}

// TestSegmentedManifestMismatch: a manifest disagreeing with a segment
// header is rejected at open.
func TestSegmentedManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	if s, err := CreateSegmented(dir, fabricateBallots(1, 30, 2), WriterOptions{SegmentBallots: 10}); err != nil {
		t.Fatal(err)
	} else {
		_ = s.Close()
	}
	// Swap two segment files: headers no longer match the manifest ranges.
	a := filepath.Join(dir, "ballots-0.seg")
	b := filepath.Join(dir, "ballots-1.seg")
	tmp := filepath.Join(dir, "swap")
	for _, mv := range [][2]string{{a, tmp}, {b, a}, {tmp, b}} {
		if err := os.Rename(mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenSegmented(dir); err == nil {
		t.Fatal("swapped segments must not open")
	}
}

// TestSegmentedManifestOverhangRejected: a manifest whose last segment
// claims more ballots than SegmentBallots must fail at open — Get's
// computed segment index would otherwise run past the segment slice.
func TestSegmentedManifestOverhangRejected(t *testing.T) {
	dir := t.TempDir()
	// One 15-ballot segment (capacity 20): the only segment is the last.
	if s, err := CreateSegmented(dir, fabricateBallots(1, 15, 2), WriterOptions{SegmentBallots: 20}); err != nil {
		t.Fatal(err)
	} else {
		_ = s.Close()
	}
	manPath := filepath.Join(dir, ManifestName)
	raw, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	// Claim a smaller segment size than the file holds: serials past the
	// claimed capacity would compute a segment index past the slice.
	raw = []byte(strings.Replace(string(raw), `"segment_ballots": 20`, `"segment_ballots": 8`, 1))
	if err := os.WriteFile(manPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSegmented(dir)
	if err == nil {
		// Without the open-time guard this is the crash: Get(14) indexes
		// segment (14-1)/8 = 1 of a 1-segment slice.
		_, _ = s.Get(14)
		_ = s.Close()
		t.Fatal("overhanging manifest must not open")
	}
}

// TestWriterRejectsSparseSerials: the dense-serial contract of CreateDisk
// holds for the streaming path too.
func TestWriterRejectsSparseSerials(t *testing.T) {
	w, err := NewWriter(t.TempDir(), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	ballots := fabricateBallots(1, 3, 2)
	if err := w.Append(ballots[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(ballots[2]); err == nil {
		t.Fatal("sparse serial accepted")
	}
}

// TestWriterRefusesStaleBuild pins the crash-mid-build reboot cycle: a
// builder that dies before Finish leaves ballots-*.seg files and no
// manifest. A rebooted builder must not silently mix those stale segments
// with fresh ones — NewWriter refuses the directory until the caller opts
// into WriterOptions.ClearStale, and the cleared rebuild converges on a
// store holding exactly the fresh pool.
func TestWriterRefusesStaleBuild(t *testing.T) {
	dir := t.TempDir()

	// Crash a build mid-flight: three segments written, no manifest.
	w, err := NewWriter(dir, WriterOptions{SegmentBallots: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range fabricateBallots(1, 25, 2) {
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	w.Abort() // simulated crash: debris stays on disk
	if segs, _ := filepath.Glob(filepath.Join(dir, "ballots-*.seg")); len(segs) == 0 {
		t.Fatal("crash simulation left no segment files; test premise broken")
	}

	// Reboot: a fresh builder must refuse the debris...
	if _, err := NewWriter(dir, WriterOptions{SegmentBallots: 10}); err == nil {
		t.Fatal("NewWriter accepted a directory with leftover segment files and no manifest")
	} else if !strings.Contains(err.Error(), "ClearStale") {
		t.Fatalf("refusal should name the ClearStale escape hatch, got: %v", err)
	}

	// ...and the explicit ClearStale rebuild must produce a clean store:
	// a *different* pool than the crashed build, so any surviving stale
	// segment would corrupt the count or the contents.
	w, err = NewWriter(dir, WriterOptions{SegmentBallots: 10, ClearStale: true})
	if err != nil {
		t.Fatalf("ClearStale rebuild: %v", err)
	}
	fresh := fabricateBallots(1, 42, 3)
	for _, b := range fresh {
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = seg.Close() }()
	if seg.Count() != 42 {
		t.Fatalf("rebuilt store holds %d ballots, want 42", seg.Count())
	}
	for _, b := range fresh {
		checkBallot(t, seg, b)
	}
}

// TestWriterRefusesOrphanManifestTmp: a crash between manifest write and
// rename leaves MANIFEST.json.tmp — also build debris, also refused.
func TestWriterRefusesOrphanManifestTmp(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName+".tmp"), []byte("{"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWriter(dir, WriterOptions{}); err == nil {
		t.Fatal("NewWriter accepted a directory with an orphaned manifest temp file")
	}
	w, err := NewWriter(dir, WriterOptions{ClearStale: true})
	if err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if _, err := os.Stat(filepath.Join(dir, ManifestName+".tmp")); !os.IsNotExist(err) {
		t.Fatal("ClearStale did not remove the orphaned manifest temp file")
	}
}

// TestStreamingBuildMemoryCeiling1M is the O(segment) claim at the
// millions-of-ballots scale: stream one million fabricated ballots through
// the Writer and bound the peak heap growth. The whole pool is ~400MB of
// records; the writer must hold only the current record buffer, so heap
// growth two orders of magnitude below the pool proves nothing accumulates.
func TestStreamingBuildMemoryCeiling1M(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-ballot streaming build: skipped in -short")
	}
	const (
		n       = 1_000_000
		ceiling = 64 << 20 // 64MiB, vs ~400MB of pool records
	)
	dir := t.TempDir()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	peak := base

	w, err := NewWriter(dir, WriterOptions{SegmentBallots: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		b := fabricateBallots(uint64(i)+1, 1, 2)[0] //nolint:gosec // positive
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
		if i%25_000 == 0 {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		}
	}
	seg, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = seg.Close() }()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > peak {
		peak = ms.HeapAlloc
	}

	if seg.Count() != n {
		t.Fatalf("store holds %d ballots, want %d", seg.Count(), n)
	}
	for _, serial := range []uint64{1, n / 2, n} {
		got, err := seg.Get(serial)
		if err != nil {
			t.Fatalf("Get(%d): %v", serial, err)
		}
		if got.Serial != serial {
			t.Fatalf("Get(%d) returned serial %d", serial, got.Serial)
		}
	}
	if grew := peak - base; grew > ceiling {
		t.Fatalf("streaming build peak heap grew %dMiB, ceiling %dMiB — the build is not O(segment)",
			grew>>20, ceiling>>20)
	}
}

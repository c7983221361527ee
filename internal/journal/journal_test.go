package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ddemos/internal/store"
)

// testRec builds an opaque record under the routing rule: kind | key | body.
func testRec(key uint64, body string) []byte {
	dst := binary.BigEndian.AppendUint64([]byte{0x42}, key)
	return append(dst, body...)
}

// recKey reads a record's routing key back.
func recKey(rec []byte) uint64 { return binary.BigEndian.Uint64(rec[1:9]) }

// replayAll collects every record a backend replays.
func replayAll(t *testing.T, j Backend) [][]byte {
	t.Helper()
	var out [][]byte
	if err := j.Replay(func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func mustOpen(t *testing.T, dir string, opts Options) Backend {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestPooledSnapshotNeverBlocksAppends is the acceptance check for the
// copy-on-write snapshot protocol: with a snapshot capture artificially
// stalled (the state source blocks), appends to the same lane must keep
// completing — they land on the rotated segment. One lane and two lanes run
// the same protocol.
func TestPooledSnapshotNeverBlocksAppends(t *testing.T) {
	for _, lanes := range []int{1, 2} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			j := mustOpen(t, t.TempDir(), Options{Pool: lanes, SnapshotEvery: 4})
			defer func() { _ = j.Close() }()

			rec := func(key uint64) []byte { return testRec(key, "code|receipt!") }
			// Cross the lane-0 threshold (even keys hash to lane 0 of 1 or 2).
			for s := uint64(2); s <= 8; s += 2 {
				if err := j.Append([][]byte{rec(s)}); err != nil {
					t.Fatal(err)
				}
			}
			captureEntered := make(chan struct{})
			captureRelease := make(chan struct{})
			done := make(chan error, 4)
			j.MaybeSnapshot(func(lane, lanes int) [][]byte {
				close(captureEntered)
				<-captureRelease
				return [][]byte{rec(2), rec(4), rec(6), rec(8)}
			}, func(err error) { done <- err })
			select {
			case <-captureEntered:
			case <-time.After(10 * time.Second):
				t.Fatal("snapshot capture never started")
			}

			// The capture is mid-flight and blocked. Appends to the same lane
			// must complete regardless.
			appended := make(chan error, 1)
			go func() {
				var err error
				for s := uint64(10); s <= 40 && err == nil; s += 2 {
					err = j.Append([][]byte{rec(s)})
				}
				appended <- err
			}()
			select {
			case err := <-appended:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("appends blocked behind an in-flight snapshot")
			}

			close(captureRelease)
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("snapshot never completed")
			}

			// Nothing was lost: snapshot content + post-seal appends all replay.
			seen := make(map[uint64]bool)
			for _, p := range replayAll(t, j) {
				seen[recKey(p)] = true
			}
			for s := uint64(2); s <= 40; s += 2 {
				if !seen[s] {
					t.Fatalf("record for key %d lost across concurrent snapshot", s)
				}
			}
		})
	}
}

// TestAdaptiveSnapshotCadence exercises the two adaptive triggers (bytes
// since snapshot, estimated replay time) and the fixed record-count
// override.
func TestAdaptiveSnapshotCadence(t *testing.T) {
	opts := Options{}.withDefaults()
	// Fixed count overrides everything.
	fixed := opts
	fixed.SnapshotEvery = 10
	if snapshotDue(fixed, 9, 1<<30, 1<<30) {
		t.Fatal("fixed cadence triggered early")
	}
	if !snapshotDue(fixed, 10, 0, 0) {
		t.Fatal("fixed cadence did not trigger at the threshold")
	}
	// Byte trigger.
	if snapshotDue(opts, 10, opts.SnapshotBytes-1, defaultReplayNsPerRecord) {
		t.Fatal("byte trigger fired below the threshold")
	}
	if !snapshotDue(opts, 10, opts.SnapshotBytes, defaultReplayNsPerRecord) {
		t.Fatal("byte trigger did not fire at the threshold")
	}
	// Replay-time trigger: records × per-record cost ≥ budget.
	perRecord := int64(time.Millisecond) // pathological 1ms/record replay
	records := int64(opts.TargetReplay/time.Millisecond) + 1
	if !snapshotDue(opts, records, 0, perRecord) {
		t.Fatal("replay-time trigger did not fire")
	}
	if snapshotDue(opts, 10, 0, perRecord) {
		t.Fatal("replay-time trigger fired for a cheap log")
	}

	// Integration: a one-lane journal with a tiny byte budget snapshots
	// without any record-count setting.
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{SnapshotBytes: 64})
	var mu sync.Mutex
	var recs [][]byte
	state := func(lane, lanes int) [][]byte {
		mu.Lock()
		defer mu.Unlock()
		return append([][]byte(nil), recs...)
	}
	snapped := make(chan error, 8)
	for s := uint64(1); s <= 8; s++ {
		rec := testRec(s, "0123456789abcdef|receipt!")
		mu.Lock()
		recs = append(recs, rec)
		mu.Unlock()
		if err := j.Append([][]byte{rec}); err != nil {
			t.Fatal(err)
		}
		j.MaybeSnapshot(state, func(err error) { snapped <- err })
	}
	// Close waits out the background captures.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	close(snapped)
	n := 0
	for err := range snapped {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("adaptive byte cadence never snapshotted")
	}
	if _, err := os.Stat(filepath.Join(dir, laneSnapshotName(0))); err != nil {
		t.Fatalf("no snapshot file: %v", err)
	}
}

// TestJournalFormatGuard: a directory reopens only with the lane count it
// was written under; a mismatch fails loudly and leaves it usable.
func TestJournalFormatGuard(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{})
	if err := j.Append([][]byte{testRec(1, "c")}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Pool: 4}); err == nil {
		t.Fatal("4-lane open of a one-lane dir must fail")
	}
	// ...and the failed attempt must not poison the directory: it still
	// opens (and replays) with one lane.
	j2 := mustOpen(t, dir, Options{Pool: 1})
	if got := replayAll(t, j2); len(got) != 1 {
		t.Fatalf("records lost after failed 4-lane open: n=%d", len(got))
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	pdir := t.TempDir()
	p := mustOpen(t, pdir, Options{Pool: 4})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(pdir, Options{Pool: 2}); err == nil {
		t.Fatal("pool-size change must fail")
	}
	if _, err := Open(pdir, Options{}); err == nil {
		t.Fatal("one-lane open of a 4-lane dir must fail")
	}
	// Same settings reopen fine.
	p2 := mustOpen(t, pdir, Options{Pool: 4})
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeLegacyDir lays out a directory as the retired single-WAL engine left
// it: FORMAT "single" (omitted when marker is false — the engine's earliest
// releases wrote none), the snapshot file and the log.
func writeLegacyDir(t *testing.T, dir string, marker bool, snap, log [][]byte) {
	t.Helper()
	if marker {
		if err := os.WriteFile(filepath.Join(dir, formatFile), []byte("single"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.WriteWALFile(filepath.Join(dir, legacySnapshotFile), snap); err != nil {
		t.Fatal(err)
	}
	w, err := store.OpenWAL(filepath.Join(dir, legacyWALFile), store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(log); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLegacySingleDirAdopted: a directory written by the retired single-WAL
// engine opens as one lane, replays the same records, refuses a pool
// without being poisoned (marker or no marker), and loses its `wal` and
// `snapshot` to the first completed lane-0 snapshot — after which it still
// replays the same state.
func TestLegacySingleDirAdopted(t *testing.T) {
	snap := [][]byte{testRec(1, "a"), testRec(2, "b")}
	log := [][]byte{testRec(2, "b"), testRec(3, "c")}
	for _, marker := range []bool{true, false} {
		t.Run(fmt.Sprintf("marker=%v", marker), func(t *testing.T) {
			dir := t.TempDir()
			writeLegacyDir(t, dir, marker, snap, log)
			if _, err := Open(dir, Options{Pool: 4}); err == nil {
				t.Fatal("4-lane open of a single-WAL dir must fail")
			}

			j := mustOpen(t, dir, Options{SnapshotEvery: 2})
			got := replayAll(t, j)
			if want := append(append([][]byte(nil), snap...), log...); !equalRecs(got, want) {
				t.Fatalf("adopted dir replayed %q, want %q", got, want)
			}
			// New appends land in the lane layout; the second crosses the
			// cadence, and the capture deletes the legacy files.
			state := [][]byte{testRec(1, "a"), testRec(2, "b"), testRec(3, "c"), testRec(4, "d"), testRec(5, "e")}
			if err := j.Append(state[3:]); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			j.MaybeSnapshot(func(lane, lanes int) [][]byte { return state }, func(err error) { done <- err })
			if err := j.Close(); err != nil { // waits out the capture
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			default:
				t.Fatal("snapshot cadence did not trigger")
			}
			for _, name := range []string{legacyWALFile, legacySnapshotFile} {
				if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
					t.Fatalf("legacy file %q survived the first snapshot (err=%v)", name, err)
				}
			}
			j2 := mustOpen(t, dir, Options{})
			defer func() { _ = j2.Close() }()
			if got := replayAll(t, j2); !equalRecs(got, state) {
				t.Fatalf("after the snapshot cycle the dir replays %q, want %q", got, state)
			}
		})
	}
}

func equalRecs(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// FuzzPooledReplay drives torn tails into individual lanes: a deterministic
// record set is appended across 3 lanes, the fuzzer truncates each lane's
// active segment by an arbitrary amount, and replay must deliver a per-lane
// prefix of what was appended — never an error, never a record from beyond
// the tear, never corruption.
func FuzzPooledReplay(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint16(0))
	f.Add(uint16(1), uint16(9), uint16(40))
	f.Add(uint16(1000), uint16(3), uint16(17))
	f.Fuzz(func(t *testing.T, cut0, cut1, cut2 uint16) {
		const lanes = 3
		dir := t.TempDir()
		j := mustOpen(t, dir, Options{Pool: lanes, SnapshotEvery: 1 << 30})
		// Per lane, an ordered sequence of records with recognizable bodies.
		perLane := make([][][]byte, lanes)
		for s := uint64(1); s <= 12; s++ {
			lane := KeyLane(s, lanes)
			rec := testRec(s, fmt.Sprintf("code-%d-%d|receipt!", s, len(perLane[lane])))
			perLane[lane] = append(perLane[lane], rec)
			if err := j.Append([][]byte{rec}); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		// Tear each lane's active segment independently.
		for lane, cut := range []uint16{cut0, cut1, cut2} {
			path := filepath.Join(dir, laneSegmentName(lane, 1))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			n := int(cut)
			if n > len(data) {
				n = len(data)
			}
			if err := os.WriteFile(path, data[:len(data)-n], 0o600); err != nil {
				t.Fatal(err)
			}
		}
		// Replay must yield a prefix per lane.
		j2 := mustOpen(t, dir, Options{Pool: lanes, SnapshotEvery: 1 << 30})
		defer func() { _ = j2.Close() }()
		got := make([][][]byte, lanes)
		for _, p := range replayAll(t, j2) {
			lane := KeyLane(recKey(p), lanes)
			got[lane] = append(got[lane], p)
		}
		for lane := 0; lane < lanes; lane++ {
			if len(got[lane]) > len(perLane[lane]) {
				t.Fatalf("lane %d replayed %d records, appended %d", lane, len(got[lane]), len(perLane[lane]))
			}
			for i, rec := range got[lane] {
				if !bytes.Equal(rec, perLane[lane][i]) {
					t.Fatalf("lane %d record %d corrupted across tear", lane, i)
				}
			}
		}
		// A lane's tear must not eat another lane's records: untorn lanes
		// replay in full.
		for lane, cut := range []uint16{cut0, cut1, cut2} {
			if cut == 0 && len(got[lane]) != len(perLane[lane]) {
				t.Fatalf("untorn lane %d lost records", lane)
			}
		}
	})
}

// TestPooledConcurrentAppendReplay hammers a journal from many goroutines
// and verifies nothing is lost.
func TestPooledConcurrentAppendReplay(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Pool: 4})
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := uint64(w*per + i + 1) //nolint:gosec // small
				if err := j.Append([][]byte{testRec(key, "x")}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, dir, Options{Pool: 4})
	defer func() { _ = j2.Close() }()
	if count := len(replayAll(t, j2)); count != workers*per {
		t.Fatalf("replayed %d of %d records", count, workers*per)
	}
}

// TestWALFileStoreGuard keeps store.ReplayWAL honest about foreign files in
// the data directory: the FORMAT marker must never be parsed as a WAL.
func TestWALFileStoreGuard(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Pool: 2})
	defer func() { _ = j.Close() }()
	if _, err := store.ReplayWAL(filepath.Join(dir, formatFile), nil); err == nil {
		t.Fatal("FORMAT marker parsed as a WAL file")
	}
}

package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func replayAll(t *testing.T, path string) [][]byte {
	t.Helper()
	var out [][]byte
	n, err := ReplayWAL(path, func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(out) {
		t.Fatalf("replay reported %d records, delivered %d", n, len(out))
	}
	return out
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%d", i))
		want = append(want, p)
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AppendBatch([][]byte{{}, []byte("after-empty")}); err != nil {
		t.Fatal(err)
	}
	want = append(want, []byte{}, []byte("after-empty"))
	if w.Records() != int64(len(want)) {
		t.Fatalf("records = %d, want %d", w.Records(), len(want))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, path)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
}

func TestWALReopenAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(path, WALOptions{SyncEachAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if w2.Records() != 1 {
		t.Fatalf("reopened records = %d", w2.Records())
	}
	if err := w2.Append([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, path)
	if len(got) != 2 || string(got[0]) != "first" || string(got[1]) != "second" {
		t.Fatalf("replay after reopen: %q", got)
	}
}

// TestWALTornTail simulates a crash mid-append at every possible cut point
// of the final record: replay must recover the intact prefix, and reopening
// must truncate the tear so new appends extend a clean log.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full")
	w, err := OpenWAL(full, WALOptions{SyncEachAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append([]byte(fmt.Sprintf("intact-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Append([]byte("the-final-record-that-tears")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lastLen := walFrameSize + len("the-final-record-that-tears")
	for cut := 1; cut <= lastLen; cut++ {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d", cut))
		if err := os.WriteFile(torn, data[:len(data)-cut], 0o600); err != nil {
			t.Fatal(err)
		}
		got := replayAll(t, torn)
		if len(got) != 3 {
			t.Fatalf("cut %d: replayed %d records, want 3", cut, len(got))
		}
		// Reopen: the tear must be truncated and the log appendable.
		w2, err := OpenWAL(torn, WALOptions{SyncEachAppend: true})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if w2.Records() != 3 {
			t.Fatalf("cut %d: reopened records = %d", cut, w2.Records())
		}
		if err := w2.Append([]byte("post-crash")); err != nil {
			t.Fatal(err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		got = replayAll(t, torn)
		if len(got) != 4 || string(got[3]) != "post-crash" {
			t.Fatalf("cut %d: after reopen+append replayed %q", cut, got)
		}
	}
}

func TestWALTornHeader(t *testing.T) {
	// A crash while the file was being created can leave fewer bytes than
	// the header. Replay must treat it as an empty log and reopen must
	// rebuild a usable file (the pooled journal rotates segments at
	// snapshot time, so fresh-file creation is a recurring crash point).
	dir := t.TempDir()
	for cut := 0; cut < walHeaderSize; cut++ {
		path := filepath.Join(dir, fmt.Sprintf("hdr-%d", cut))
		if err := os.WriteFile(path, []byte("DDWL\x00\x01\x00\x00")[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		if got := replayAll(t, path); len(got) != 0 {
			t.Fatalf("cut %d: torn header replayed %d records", cut, len(got))
		}
		w, err := OpenWAL(path, WALOptions{SyncEachAppend: true})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if err := w.Append([]byte("fresh")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := replayAll(t, path); len(got) != 1 || string(got[0]) != "fresh" {
			t.Fatalf("cut %d: rebuilt log replayed %q", cut, got)
		}
	}
	// A small foreign file that is NOT a header prefix must be refused, not
	// clobbered: only genuine torn headers get the rebuild treatment.
	foreign := filepath.Join(dir, "foreign")
	if err := os.WriteFile(foreign, []byte("hi!"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(foreign, WALOptions{}); err == nil {
		t.Fatal("foreign sub-header file opened (and clobbered) as a wal")
	}
	if data, err := os.ReadFile(foreign); err != nil || string(data) != "hi!" {
		t.Fatalf("foreign file content changed: %q %v", data, err)
	}
	if _, err := ReplayWAL(foreign, nil); err == nil {
		t.Fatal("foreign sub-header file replayed as a wal")
	}
}

func TestWALCorruptRecordStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(path, WALOptions{SyncEachAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append([]byte{byte(i), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the third record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recSize := walFrameSize + 4
	data[walHeaderSize+2*recSize+walFrameSize] ^= 0xFF
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, path); len(got) != 2 {
		t.Fatalf("replay past corruption: %d records, want 2", len(got))
	}
}

func TestWALRejectsGarbageAndOversize(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage")
	if err := os.WriteFile(garbage, []byte("not a wal file, definitely"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(garbage, WALOptions{}); err == nil {
		t.Fatal("garbage file must not open as a wal")
	}
	if _, err := ReplayWAL(garbage, nil); err == nil {
		t.Fatal("garbage file must not replay")
	}
	// Missing file replays empty.
	if n, err := ReplayWAL(filepath.Join(dir, "missing"), nil); err != nil || n != 0 {
		t.Fatalf("missing file: n=%d err=%v", n, err)
	}
	// Oversized length field reads as a tear, not an allocation.
	huge := filepath.Join(dir, "huge")
	buf := make([]byte, walHeaderSize)
	copy(buf, walMagic)
	binary.BigEndian.PutUint16(buf[4:], walVersion)
	buf = binary.BigEndian.AppendUint32(buf, MaxWALRecord+1)
	buf = binary.BigEndian.AppendUint32(buf, 0)
	if err := os.WriteFile(huge, buf, 0o600); err != nil {
		t.Fatal(err)
	}
	if n, err := ReplayWAL(huge, nil); err != nil || n != 0 {
		t.Fatalf("oversized record: n=%d err=%v", n, err)
	}
	w, err := OpenWAL(filepath.Join(dir, "fresh"), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.Close() }()
	if err := w.Append(make([]byte, MaxWALRecord+1)); err == nil {
		t.Fatal("oversized append must fail")
	}
}

func TestWALClosedOperationsFail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal("double close must be fine")
	}
	if err := w.Append([]byte("x")); err == nil {
		t.Fatal("append after close must fail")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("sync after close must fail")
	}
}

func TestWALConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(path, WALOptions{SyncEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := w.Append([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, path); len(got) != goroutines*per {
		t.Fatalf("replayed %d records, want %d", len(got), goroutines*per)
	}
}

func TestWALAppendDoesNotWaitForGroupCommit(t *testing.T) {
	// The group-commit fsync runs outside the append lock: with the
	// background sync parked before its fsync, AppendBatch still returns,
	// and the records it wrote are synced once the parked sync finishes.
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	w.beforeSync = func() { once.Do(func() { close(parked); <-release }) }
	if err := w.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	<-parked
	appended := make(chan error, 1)
	go func() { appended <- w.AppendBatch([][]byte{[]byte("second"), []byte("third")}) }()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("AppendBatch waited for the group-commit fsync")
	}
	close(release)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	dirty := w.appended != w.synced
	w.mu.Unlock()
	if dirty {
		t.Fatal("records appended during the parked sync are not synced after Sync")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, path); len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
}

func TestWriteWALFileAtomicSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot")
	if err := WriteWALFile(path, [][]byte{[]byte("a"), []byte("bb"), {}}); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, path)
	if len(got) != 3 || string(got[0]) != "a" || string(got[1]) != "bb" || len(got[2]) != 0 {
		t.Fatalf("snapshot replayed %q", got)
	}
	// Overwrite with new content: reads must see old or new, never a mix —
	// here just verify the replace lands and leaves no temp litter.
	if err := WriteWALFile(path, [][]byte{[]byte("v2")}); err != nil {
		t.Fatal(err)
	}
	got = replayAll(t, path)
	if len(got) != 1 || string(got[0]) != "v2" {
		t.Fatalf("replaced snapshot replayed %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func BenchmarkWALAppend(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts WALOptions
	}{
		{"batched", WALOptions{}},
		{"fsync-each", WALOptions{SyncEachAppend: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			w, err := OpenWAL(filepath.Join(b.TempDir(), "wal"), mode.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = w.Close() }()
			payload := make([]byte, 128)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

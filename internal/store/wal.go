package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// WAL is an append-only write-ahead log of opaque records, the durability
// substrate for a Vote Collector's runtime ballot state (the paper's VC
// deployment keeps this state in PostgreSQL so a crashed node can rejoin
// within the fault bound, §V; this file-backed log plays that role here).
//
// File layout:
//
//	header: magic "DDWL" | version u16 | reserved u16
//	then records of  length u32 | crc32(payload) u32 | payload
//
// Append writes each record with a single write(2) call, so everything
// appended before an ack survives a *process* crash; fsync is batched on a
// background cadence (group commit), so only a whole-machine failure can
// lose the last syncEvery window. The background fsync runs outside the
// append lock: an append never waits for it. SyncEachAppend trades
// throughput for per-record durability.
//
// Replay tolerates a torn tail: a crash mid-write leaves a final record
// with a short header, short payload, or mismatched CRC, and replay stops
// at the last valid prefix. OpenWAL truncates the tear away so the next
// append extends a clean log.
type WAL struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	opts    WALOptions
	scratch []byte
	records int64
	// appended counts AppendBatch writes; synced is the value appended had
	// when the last completed fsync started. The log is dirty while they
	// differ.
	appended, synced uint64
	err              error // first sync/write error, sticky

	// syncMu serializes fsyncs. It is taken before mu and never while
	// holding it, and the fsync itself runs with only syncMu held.
	syncMu sync.Mutex
	// beforeSync, when set (tests), runs before each background or Sync
	// fsync, outside mu.
	beforeSync func()

	kick    chan struct{}
	closeCh chan struct{}
	loopWG  sync.WaitGroup
}

// WALOptions tunes durability.
type WALOptions struct {
	// SyncEachAppend fsyncs before every Append returns (the -fsync flag
	// of ddemos-vc): per-record durability against power loss, at the cost
	// of one fsync per transition.
	SyncEachAppend bool
}

// syncEvery is the group-commit cadence: without SyncEachAppend, appended
// records are fsynced at most this long after Append returns — the same
// order as an inter-VC hop, so journal syncs coalesce with message batches.
const syncEvery = 2 * time.Millisecond

const (
	walMagic      = "DDWL"
	walVersion    = 1
	walHeaderSize = 4 + 2 + 2
	walFrameSize  = 4 + 4 // length + crc
	// MaxWALRecord bounds one record's payload; larger length fields mean
	// corruption, not a huge record.
	MaxWALRecord = 1 << 24
)

// ErrWALClosed is returned by operations on a closed WAL.
var ErrWALClosed = errors.New("store: wal closed")

// OpenWAL opens (creating if needed) the log at path, truncating any torn
// tail left by a crash, and positions for appending.
func OpenWAL(path string, opts WALOptions) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("store: open wal %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("store: stat wal %s: %w", path, err)
	}
	w := &WAL{
		f:       f,
		path:    path,
		opts:    opts,
		kick:    make(chan struct{}, 1),
		closeCh: make(chan struct{}),
	}
	if st.Size() == 0 {
		if err := writeWALHeader(f); err != nil {
			_ = f.Close()
			return nil, err
		}
	} else {
		valid, n, err := scanWAL(f, nil)
		if err != nil {
			_ = f.Close()
			return nil, err
		}
		if valid < walHeaderSize {
			// The header itself is torn (a crash while the file was being
			// created): start over with an empty log.
			if err := f.Truncate(0); err != nil {
				_ = f.Close()
				return nil, fmt.Errorf("store: truncate torn wal header: %w", err)
			}
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				_ = f.Close()
				return nil, fmt.Errorf("store: seek wal: %w", err)
			}
			if err := writeWALHeader(f); err != nil {
				_ = f.Close()
				return nil, err
			}
			valid, n = walHeaderSize, 0
		} else if valid < st.Size() {
			// Torn tail from a crash mid-append: cut it away so the next
			// record extends a clean prefix.
			if err := f.Truncate(valid); err != nil {
				_ = f.Close()
				return nil, fmt.Errorf("store: truncate torn wal tail: %w", err)
			}
		}
		if _, err := f.Seek(valid, io.SeekStart); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("store: seek wal: %w", err)
		}
		w.records = int64(n)
	}
	if !w.opts.SyncEachAppend {
		w.loopWG.Add(1)
		go w.syncLoop()
	}
	return w, nil
}

func canonicalWALHeader() []byte {
	hdr := make([]byte, walHeaderSize)
	copy(hdr, walMagic)
	binary.BigEndian.PutUint16(hdr[4:], walVersion)
	return hdr
}

func writeWALHeader(f *os.File) error {
	if _, err := f.Write(canonicalWALHeader()); err != nil {
		return fmt.Errorf("store: write wal header: %w", err)
	}
	return nil
}

// Append durably logs one record (see the type comment for what "durably"
// means under each sync policy).
func (w *WAL) Append(payload []byte) error {
	return w.AppendBatch([][]byte{payload})
}

// AppendBatch logs several records with one write call (and, under
// SyncEachAppend, one fsync) — the journal-side analogue of the transport
// batch flush: transitions produced by one message batch coalesce into one
// syscall.
func (w *WAL) AppendBatch(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return ErrWALClosed
	}
	if w.err != nil {
		return w.err
	}
	w.scratch = w.scratch[:0]
	for _, p := range payloads {
		if len(p) > MaxWALRecord {
			return fmt.Errorf("store: wal record %d bytes exceeds limit", len(p))
		}
		w.scratch = binary.BigEndian.AppendUint32(w.scratch, uint32(len(p))) //nolint:gosec // bounded above
		w.scratch = binary.BigEndian.AppendUint32(w.scratch, crc32.ChecksumIEEE(p))
		w.scratch = append(w.scratch, p...)
	}
	if _, err := w.f.Write(w.scratch); err != nil {
		w.err = fmt.Errorf("store: wal append: %w", err)
		return w.err
	}
	w.records += int64(len(payloads))
	if w.opts.SyncEachAppend {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("store: wal sync: %w", err)
			return w.err
		}
		return nil
	}
	w.appended++
	if w.appended == w.synced+1 {
		w.kickLocked() // first record since the last fsync
	}
	return nil
}

// kickLocked wakes the group-commit loop.
func (w *WAL) kickLocked() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// Sync forces everything appended before the call to stable storage.
func (w *WAL) Sync() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	f, target, err := w.f, w.appended, w.err
	clean := target == w.synced
	w.mu.Unlock()
	switch {
	case f == nil:
		return ErrWALClosed
	case err != nil:
		return err
	case clean:
		return nil
	}
	if w.beforeSync != nil {
		w.beforeSync()
	}
	// Appends go on while the fsync runs; it covers at least every record
	// written before target was read. Close waits on syncMu, so f stays open.
	err = f.Sync()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		if w.err == nil {
			w.err = fmt.Errorf("store: wal sync: %w", err)
		}
		return w.err
	}
	w.synced = target
	if w.appended != target {
		w.kickLocked() // appended during the fsync: still dirty
	}
	return nil
}

// syncLoop is the group-commit loop: it wakes on the first dirty append,
// sleeps one cadence so concurrent appends pile into the same fsync, and
// syncs.
func (w *WAL) syncLoop() {
	defer w.loopWG.Done()
	for {
		select {
		case <-w.closeCh:
			return
		case <-w.kick:
		}
		t := time.NewTimer(syncEvery)
		select {
		case <-w.closeCh:
			t.Stop()
			return
		case <-t.C:
		}
		_ = w.Sync() // a failure is sticky: the next append reports it
	}
}

// Records reports how many records the log holds (replayed + appended).
func (w *WAL) Records() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Close syncs and closes the log.
func (w *WAL) Close() error {
	w.syncMu.Lock()
	w.mu.Lock()
	if w.f == nil {
		w.mu.Unlock()
		w.syncMu.Unlock()
		return nil
	}
	close(w.closeCh)
	err := w.err
	if err == nil {
		if serr := w.f.Sync(); serr != nil {
			err = fmt.Errorf("store: wal sync: %w", serr)
			w.err = err
		}
	}
	cerr := w.f.Close()
	w.f = nil
	w.mu.Unlock()
	w.syncMu.Unlock()
	w.loopWG.Wait()
	if err != nil {
		return err
	}
	return cerr
}

// scanWAL streams records from the current file start, calling fn (when
// non-nil) for each valid payload, and returns the byte length of the valid
// prefix plus the record count. A torn tail (short header, short payload,
// bad CRC) ends the scan without error; an fn error aborts the scan.
func scanWAL(f *os.File, fn func(payload []byte) error) (int64, int, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("store: seek wal: %w", err)
	}
	hdr := make([]byte, walHeaderSize)
	if n, err := io.ReadFull(f, hdr); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// Shorter than a header. A crash mid-creation tears the header
			// write, leaving a strict prefix of the canonical bytes — treat
			// that as an empty log (callers rewrite the header). Anything
			// else this small is a foreign file and must not be clobbered.
			if bytes.HasPrefix(canonicalWALHeader(), hdr[:n]) {
				return 0, 0, nil
			}
			return 0, 0, fmt.Errorf("store: %s is not a wal file", f.Name())
		}
		return 0, 0, fmt.Errorf("store: wal header: %w", err)
	}
	if string(hdr[:4]) != walMagic {
		return 0, 0, fmt.Errorf("store: %s is not a wal file", f.Name())
	}
	if v := binary.BigEndian.Uint16(hdr[4:]); v != walVersion {
		return 0, 0, fmt.Errorf("store: unsupported wal version %d", v)
	}
	valid := int64(walHeaderSize)
	count := 0
	frame := make([]byte, walFrameSize)
	var payload []byte
	for {
		if _, err := io.ReadFull(f, frame); err != nil {
			return valid, count, nil // clean EOF or torn header
		}
		n := binary.BigEndian.Uint32(frame)
		crc := binary.BigEndian.Uint32(frame[4:])
		if n > MaxWALRecord {
			return valid, count, nil // corrupt length: treat as tear
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(f, payload); err != nil {
			return valid, count, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return valid, count, nil // torn or corrupt record
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return valid, count, err
			}
		}
		valid += walFrameSize + int64(n)
		count++
	}
}

// ReplayWAL streams every valid record of the log at path into fn, in append
// order, tolerating a torn tail. A missing file replays zero records; a file
// that exists but is not a WAL is an error. Returns the record count.
func ReplayWAL(path string, fn func(payload []byte) error) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("store: open wal %s: %w", path, err)
	}
	defer func() { _ = f.Close() }()
	_, n, err := scanWAL(f, fn)
	return n, err
}

// WriteWALFile atomically writes a complete record file (the snapshot side
// of snapshot+log recovery): records are framed exactly like a WAL and
// published through an AtomicFile, so a crash mid-snapshot leaves the
// previous snapshot intact.
func WriteWALFile(path string, payloads [][]byte) error {
	for _, p := range payloads {
		if len(p) > MaxWALRecord {
			return fmt.Errorf("store: wal record %d bytes exceeds limit", len(p))
		}
	}
	f, err := CreateAtomic(path)
	if err != nil {
		return err
	}
	// A write error sticks in f and fails Close, which then publishes nothing.
	_, _ = f.Write(canonicalWALHeader())
	var frame [8]byte
	for _, p := range payloads {
		binary.BigEndian.PutUint32(frame[:4], uint32(len(p))) //nolint:gosec // bounded above
		binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(p))
		_, _ = f.Write(frame[:])
		_, _ = f.Write(p)
	}
	return f.Close()
}

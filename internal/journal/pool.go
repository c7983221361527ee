package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ddemos/internal/store"
)

// pool is the file-backed engine: N write-ahead-log lanes hashed by record
// key, each with its own group-commit fsync loop (the package comment has
// the on-disk layout). Two properties matter to callers:
//
//   - Appends to different lanes proceed in parallel, so the per-append
//     fsync (or group-commit mutex) of one lane never serializes the whole
//     node. Ballot traffic is serial-affine, so a ballot's records always
//     land in one lane in order (not that order matters: records are
//     idempotent monotone facts).
//
//   - Snapshots are copy-on-write per lane: the snapshot seals the lane's
//     active log segment, rotates appends onto a fresh segment, and only
//     then captures state and writes the snapshot file in the background.
//     Appends are never blocked by an in-flight capture — they just land in
//     the new segment, which stays in the replay set.
type pool struct {
	dir       string
	opts      Options
	lanes     []*journalLane
	perRecord atomic.Int64 // measured replay ns/record (adaptive cadence)

	// snapMu serializes capture launches against Close: without it a
	// MaybeSnapshot racing Close could Add after the Wait, leaving a
	// capture running beyond Close's return.
	snapMu sync.Mutex
	snapWG sync.WaitGroup
	closed bool
}

type journalLane struct {
	idx int
	dir string

	mu           sync.Mutex
	wal          *store.WAL // active segment
	seq          uint64     // active segment sequence number
	sealed       []string   // sealed segment paths awaiting snapshot+delete
	bytes        int64      // payload bytes in the active segment
	snapshotting bool

	// Lock-free mirrors of the cadence inputs: MaybeSnapshot runs on every
	// append and sweeps all lanes, so its not-due fast path must not take
	// the other lanes' mutexes (that would re-serialize exactly the locks
	// the pool exists to decouple). Kept in sync under mu; reads may be
	// slightly stale, which only shifts a snapshot by one append.
	fastRecords atomic.Int64
	fastBytes   atomic.Int64
	fastBusy    atomic.Bool
}

func laneSegmentName(lane int, seq uint64) string {
	return fmt.Sprintf("wal-%d.%06d", lane, seq)
}

func laneSnapshotName(lane int) string {
	return fmt.Sprintf("snapshot-%d", lane)
}

// Open opens (creating if needed) the data directory as a journal of
// opts.Pool lanes, truncating any torn tail left by a crash. The FORMAT
// marker pins the lane count: lane hashing and per-lane snapshots are only
// consistent for the pool size the records were written under, so a
// mismatch fails loudly and leaves the directory as it was.
func Open(dir string, opts Options) (Backend, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("journal: dir %s: %w", dir, err)
	}
	opts = opts.withDefaults()
	// Before the marker stamp, so a refused directory is left as it was.
	for _, name := range []string{"wal", "snapshot"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return nil, fmt.Errorf("journal: dir %s holds %q, written by the retired single-WAL engine, "+
				"which this build does not replay; start the node on a fresh directory", dir, name)
		}
	}
	if err := checkFormat(dir, formatMarker(opts.Pool)); err != nil {
		return nil, err
	}
	// Stranding guard independent of the marker: replay only walks the
	// configured lanes, so files from a higher lane index mean the
	// directory was written under a larger pool.
	segs, maxLane, err := laneFiles(dir)
	if err != nil {
		return nil, err
	}
	if maxLane >= opts.Pool {
		return nil, fmt.Errorf("journal: dir %s holds lane %d records beyond pool %d; "+
			"reopen with the pool size the directory was written under", dir, maxLane, opts.Pool)
	}
	p := &pool{dir: dir, opts: opts}
	for k := 0; k < opts.Pool; k++ {
		lane, err := openJournalLane(dir, k, segs[k], opts)
		if err != nil {
			_ = p.Close()
			return nil, err
		}
		p.lanes = append(p.lanes, lane)
	}
	return p, nil
}

// openJournalLane opens lane idx over its existing segments: all but the
// newest become sealed (they were rotated out by an earlier snapshot cycle
// that did not finish deleting them) and the newest reopens for appending.
func openJournalLane(dir string, idx int, segs []uint64, opts Options) (*journalLane, error) {
	lane := &journalLane{idx: idx, dir: dir, seq: 1}
	if n := len(segs); n > 0 {
		lane.seq = segs[n-1]
		for _, seq := range segs[:n-1] {
			lane.sealed = append(lane.sealed, filepath.Join(dir, laneSegmentName(idx, seq)))
		}
	}
	var err error
	lane.wal, err = store.OpenWAL(filepath.Join(dir, laneSegmentName(idx, lane.seq)), store.WALOptions{
		SyncEachAppend: opts.Fsync,
	})
	if err != nil {
		return nil, err
	}
	lane.fastRecords.Store(lane.wal.Records())
	return lane, nil
}

// laneFiles scans dir for lane files: every lane's segment sequence numbers,
// ascending, and the highest lane index a segment or snapshot names (-1 when
// there is none). A name that does not parse is a foreign file; replay
// ignores it too.
func laneFiles(dir string) (segs map[int][]uint64, maxLane int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: dir %s: %w", dir, err)
	}
	segs, maxLane = make(map[int][]uint64), -1
	for _, e := range entries {
		laneStr, seqStr, isSeg := "", "", false
		if rest, ok := strings.CutPrefix(e.Name(), "wal-"); ok {
			if laneStr, seqStr, isSeg = strings.Cut(rest, "."); !isSeg {
				continue
			}
		} else if laneStr, ok = strings.CutPrefix(e.Name(), "snapshot-"); !ok {
			continue
		}
		lane64, err := strconv.ParseInt(laneStr, 10, 32)
		if err != nil {
			continue
		}
		lane := int(lane64)
		maxLane = max(maxLane, lane)
		if seq, err := strconv.ParseUint(seqStr, 10, 64); isSeg && err == nil {
			segs[lane] = append(segs[lane], seq)
		}
	}
	for _, seqs := range segs {
		sort.Slice(seqs, func(i, k int) bool { return seqs[i] < seqs[k] })
	}
	return segs, maxLane, nil
}

// Replay implements Backend: per lane, the snapshot then every segment in
// sequence order. Lane order is irrelevant — records are order-independent
// facts.
func (p *pool) Replay(fn func(payload []byte) error) error {
	t0 := time.Now()
	total := 0
	segs, _, err := laneFiles(p.dir)
	if err != nil {
		return err
	}
	for _, lane := range p.lanes {
		paths := []string{filepath.Join(p.dir, laneSnapshotName(lane.idx))}
		for _, seq := range segs[lane.idx] {
			// The active segment is among these; ReplayWAL opens read-only,
			// which is safe before any post-recovery append.
			paths = append(paths, filepath.Join(p.dir, laneSegmentName(lane.idx, seq)))
		}
		for _, path := range paths {
			n, err := store.ReplayWAL(path, fn)
			if err != nil {
				return err
			}
			total += n
		}
	}
	observeReplayCost(&p.perRecord, time.Since(t0), total)
	return nil
}

// Append implements Backend: records are routed to their key's lane and
// appended per lane in one batch. Lanes fail independently; the
// first error is returned (Strict nodes then refuse the dependent ack —
// duplicate records from the lanes that did succeed are harmless on
// replay).
func (p *pool) Append(recs [][]byte) error {
	if len(recs) == 0 {
		return nil
	}
	if len(p.lanes) == 1 {
		return p.lanes[0].append(recs)
	}
	// The common case is a single-ballot batch: all records share one lane.
	first := recLane(recs[0], len(p.lanes))
	single := true
	for _, r := range recs[1:] {
		if recLane(r, len(p.lanes)) != first {
			single = false
			break
		}
	}
	if single {
		return p.lanes[first].append(recs)
	}
	byLane := make(map[int][][]byte, 2)
	for _, r := range recs {
		k := recLane(r, len(p.lanes))
		byLane[k] = append(byLane[k], r)
	}
	var firstErr error
	for k, group := range byLane {
		if err := p.lanes[k].append(group); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (l *journalLane) append(recs [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.wal.AppendBatch(recs); err != nil {
		return err
	}
	var n int64
	for _, r := range recs {
		n += int64(len(r))
	}
	l.bytes += n
	l.fastBytes.Add(n)
	l.fastRecords.Add(int64(len(recs)))
	return nil
}

// MaybeSnapshot implements Backend. For every lane past its cadence
// threshold it seals the active segment under the lane lock (a rename-free
// rotation: open the next segment, remember the sealed path), then captures
// the lane's state and writes the snapshot in a background goroutine —
// appends to the lane proceed on the fresh segment throughout. The capture
// is taken after the seal, and every sealed record's state mutation
// happened before its append returned, so the snapshot always covers the
// sealed segments; records racing into the new segment replay as no-ops.
func (p *pool) MaybeSnapshot(state StateSource, done func(error)) {
	per := p.perRecord.Load()
	for _, lane := range p.lanes {
		// Lock-free not-due fast path: this sweep runs on every append, and
		// touching the other lanes' mutexes here would re-serialize the
		// pool. The mirrors may lag one append; the locked re-check below is
		// authoritative.
		if lane.fastBusy.Load() ||
			!snapshotDue(p.opts, lane.fastRecords.Load(), lane.fastBytes.Load(), per) {
			continue
		}
		lane.mu.Lock()
		due := !lane.snapshotting && snapshotDue(p.opts, lane.wal.Records(), lane.bytes, per)
		if !due {
			lane.mu.Unlock()
			continue
		}
		p.snapMu.Lock()
		if p.closed {
			p.snapMu.Unlock()
			lane.mu.Unlock()
			return
		}
		sealedPaths, err := lane.rotateLocked(p.opts)
		if err != nil {
			p.snapMu.Unlock()
			lane.mu.Unlock()
			done(err)
			continue
		}
		lane.snapshotting = true
		lane.fastBusy.Store(true)
		p.snapWG.Add(1)
		p.snapMu.Unlock()
		lane.mu.Unlock()

		go func(lane *journalLane, sealedPaths []string) {
			defer p.snapWG.Done()
			err := p.captureLane(lane, sealedPaths, state)
			lane.mu.Lock()
			lane.snapshotting = false
			lane.fastBusy.Store(false)
			lane.mu.Unlock()
			done(err)
		}(lane, sealedPaths)
	}
}

// rotateLocked seals the active segment and opens the next one. Caller
// holds lane.mu. Returns every sealed path the upcoming snapshot covers
// (including leftovers from earlier failed cycles). The next segment is
// opened *before* the active one is closed, so a transient open failure
// (ENOSPC, EMFILE) leaves the lane fully serviceable on its current
// segment and the rotation simply retries at the next cadence trigger.
func (l *journalLane) rotateLocked(opts Options) ([]string, error) {
	next, err := store.OpenWAL(filepath.Join(l.dir, laneSegmentName(l.idx, l.seq+1)), store.WALOptions{
		SyncEachAppend: opts.Fsync,
	})
	if err != nil {
		return nil, err
	}
	// The sealed segment's data reached the OS on every append; a failed
	// close only loses the final fsync. It stays in the replay set either
	// way, so the lane moves to the fresh segment regardless and the error
	// only skips this capture.
	cerr := l.wal.Close()
	l.sealed = append(l.sealed, filepath.Join(l.dir, laneSegmentName(l.idx, l.seq)))
	l.seq++
	l.wal = next
	l.bytes = 0
	l.fastBytes.Store(0)
	l.fastRecords.Store(0)
	if cerr != nil {
		return nil, cerr
	}
	return append([]string(nil), l.sealed...), nil
}

// captureLane writes the lane's snapshot (copy-on-write: no lane lock held
// during the state capture or the file write) and deletes the sealed
// segments it covers.
func (p *pool) captureLane(lane *journalLane, sealedPaths []string, state StateSource) error {
	recs := state(lane.idx, len(p.lanes))
	if err := store.WriteWALFile(filepath.Join(p.dir, laneSnapshotName(lane.idx)), recs); err != nil {
		return err
	}
	for _, path := range sealedPaths {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	// sealedPaths was all of lane.sealed at the rotation, and sealed only
	// grows at its end.
	lane.mu.Lock()
	lane.sealed = lane.sealed[len(sealedPaths):]
	lane.mu.Unlock()
	return nil
}

// Sync implements Backend.
func (p *pool) Sync() error {
	var firstErr error
	for _, lane := range p.lanes {
		lane.mu.Lock()
		err := lane.wal.Sync()
		lane.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close implements Backend: waits out in-flight snapshot captures,
// then syncs and closes every lane.
func (p *pool) Close() error {
	p.snapMu.Lock()
	p.closed = true
	p.snapMu.Unlock()
	p.snapWG.Wait()
	var firstErr error
	for _, lane := range p.lanes {
		if lane == nil || lane.wal == nil {
			continue
		}
		lane.mu.Lock()
		err := lane.wal.Close()
		lane.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

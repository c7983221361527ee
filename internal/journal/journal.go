// Package journal is the durable-runtime-state engine shared by the Vote
// Collector and the Bulletin Board. The paper keeps each node's runtime
// state in one PostgreSQL database reached through a connection pool of a
// chosen size (§V, Fig. 5a); here that role is played by one file-backed
// engine of Options.Pool write-ahead-log lanes — one lane is the small
// deployment, more lanes are the pool — plus MemJournal, the in-memory fake
// tests substitute for it.
//
// Records are opaque to the engine: monotone facts whose replay is
// order-independent and idempotent, which is what makes snapshot/log overlap
// benign. The engine knows one thing about their bytes, the routing rule:
//
//	A record opens with `kind u8 | key u64` (big-endian). It is appended to
//	lane KeyLane(key, lanes); a record shorter than nine bytes goes to
//	lane 0.
//
// A node's StateSource must emit each lane's snapshot under the same rule
// (KeyLane on the record's key), so a lane's snapshot covers exactly the
// records its sealed segments held.
//
// On-disk layout of a data directory: the FORMAT marker (the lane count),
// and per lane k the segments "wal-<k>.<seq>" (ascending seq; the highest
// is active) and the snapshot "snapshot-<k>". Replay order is snapshot,
// then segments by seq. A crash at any point between seal, snapshot write
// and segment deletion only leaves extra records the snapshot already
// covers.
//
// A directory written by the retired single-WAL engine (marker "single",
// files "wal" and "snapshot") opens as one lane: its two files replay ahead
// of lane 0 and are deleted, like sealed segments, by the first completed
// lane-0 snapshot.
package journal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// File names inside a data directory. The two legacy names are what the
// retired single-WAL engine wrote.
const (
	formatFile         = "FORMAT"
	legacyWALFile      = "wal"
	legacySnapshotFile = "snapshot"
)

// AckPolicy selects what a node does when a journal append fails while an
// externally visible ack (ENDORSEMENT reply, receipt release, consensus
// result, BB submission ack) depends on the record.
type AckPolicy uint8

// Ack policies.
const (
	// PolicyAvailable counts the error and keeps serving from memory —
	// availability over durability, today's default.
	PolicyAvailable AckPolicy = iota
	// PolicyStrict refuses the ack: no ENDORSEMENT reply and no receipt
	// leaves the node without a durable journal record backing it. The
	// safer election-day default when the journal is the system of record.
	PolicyStrict
)

// String implements fmt.Stringer.
func (p AckPolicy) String() string {
	if p == PolicyStrict {
		return "strict"
	}
	return "available"
}

// ParseAckPolicy parses the -journal-policy flag values.
func ParseAckPolicy(s string) (AckPolicy, error) {
	switch s {
	case "", "available":
		return PolicyAvailable, nil
	case "strict":
		return PolicyStrict, nil
	}
	return 0, fmt.Errorf("journal: unknown policy %q (want available or strict)", s)
}

// Options tunes a node's persistence layer.
type Options struct {
	// Fsync syncs the log before every ack instead of on the batched
	// cadence: per-transition durability against power loss (process
	// crashes never lose acked state either way, since records hit the OS
	// before the ack).
	Fsync bool
	// SyncEvery is the group-commit cadence when Fsync is off (default
	// 2ms, the same order as the transport batch flush window, so journal
	// syncs coalesce with message batches).
	SyncEvery time.Duration
	// SnapshotEvery, when > 0, overrides the adaptive cadence with a fixed
	// record-count trigger (0 = adaptive).
	SnapshotEvery int
	// SnapshotBytes is the adaptive-cadence byte trigger: snapshot once the
	// un-snapshotted log exceeds this many payload bytes (default 1 MiB).
	SnapshotBytes int64
	// TargetReplay is the adaptive-cadence replay budget: snapshot once the
	// estimated time to replay the un-snapshotted log (records × measured
	// per-record apply cost) exceeds it (default 200ms).
	TargetReplay time.Duration
	// Pool is the number of WAL lanes records are hashed over by key, each
	// with its own group-commit fsync loop and copy-on-write snapshots (the
	// runtime-state analogue of the paper's Fig. 5a connection-pool sweep).
	// <= 1 means one lane.
	Pool int
	// Policy selects the journal-append-error ack policy.
	Policy AckPolicy
}

func (o Options) withDefaults() Options {
	if o.SnapshotBytes <= 0 {
		o.SnapshotBytes = 1 << 20
	}
	if o.TargetReplay <= 0 {
		o.TargetReplay = 200 * time.Millisecond
	}
	if o.Pool < 1 {
		o.Pool = 1
	}
	return o
}

// StateSource serializes one lane's share of a node's runtime state as
// journal records — the snapshot payload. lane is in [0, lanes); a single
// lane receives the whole state. Callers invoke it without holding any
// journal lock, so captures run concurrently with appends.
type StateSource func(lane, lanes int) [][]byte

// Backend is the storage engine behind a node's runtime-state journal: the
// file-backed lane pool Open returns, or MemJournal in tests.
type Backend interface {
	// Replay streams every persisted record — snapshots first, then the
	// logs — into fn. Backends measure the replay to calibrate the
	// adaptive snapshot cadence.
	Replay(fn func(payload []byte) error) error
	// Append durably logs records, each routed by the package's rule.
	Append(recs [][]byte) error
	// MaybeSnapshot captures lanes whose un-snapshotted debt crossed the
	// cadence threshold, invoking done once per completed (nil) or failed
	// attempt. Lanes capture copy-on-write in the background, so appends
	// are never blocked by an in-flight snapshot; MemJournal calls state
	// synchronously, so callers must not hold a lock state takes.
	MaybeSnapshot(state StateSource, done func(error))
	// Sync forces everything appended so far to stable storage.
	Sync() error
	// Close syncs and closes the backend, waiting out in-flight snapshots.
	Close() error
}

// Counters are the journal counters a node's metrics carry.
type Counters struct {
	JournalRecords atomic.Int64 // records appended to the journal
	JournalErrors  atomic.Int64 // failed appends, syncs, snapshots, encodes (alarm on this)
	Snapshots      atomic.Int64 // completed snapshot cycles
}

// Log appends recs to j and gives it the chance to snapshot from state,
// counting the outcome of both in c. The error is the append's; what it
// means for a dependent ack is the caller's policy decision. Callers must
// not hold a lock state takes.
func Log(j Backend, c *Counters, state StateSource, recs [][]byte) error {
	if err := j.Append(recs); err != nil {
		c.JournalErrors.Add(1)
		return err
	}
	c.JournalRecords.Add(int64(len(recs)))
	j.MaybeSnapshot(state, func(err error) {
		if err != nil {
			c.JournalErrors.Add(1)
		} else {
			c.Snapshots.Add(1)
		}
	})
	return nil
}

// KeyLane routes an 8-byte record key to its WAL lane — the hash the engine
// applies to bytes [1,9) of every appended record, exported so a
// StateSource can split its snapshot the same way.
func KeyLane(key uint64, lanes int) int {
	if lanes <= 1 {
		return 0
	}
	return int(key % uint64(lanes)) //nolint:gosec // lanes is small
}

// recLane applies the routing rule to an encoded record.
func recLane(rec []byte, lanes int) int {
	if lanes <= 1 || len(rec) < 9 {
		return 0
	}
	return KeyLane(binary.BigEndian.Uint64(rec[1:9]), lanes)
}

// formatMarker is the FORMAT file's content for a lane count. One lane keeps
// the retired single-WAL engine's spelling, so its directories need no
// rewrite and a binary that predates this package refuses a lane-layout
// directory on structure rather than misreading the marker.
func formatMarker(lanes int) string {
	if lanes == 1 {
		return "single"
	}
	return fmt.Sprintf("pooled %d", lanes)
}

// checkFormat stamps (or verifies) the directory's lane-count marker. The
// marker is written atomically (temp + fsync + rename) and an invalid one —
// empty or torn by a crash during a first open that predates the atomic
// write — is rewritten rather than trusted: the structural layout guards in
// Open are what keep records from being stranded, the marker makes the
// mismatch error friendly.
func checkFormat(dir, want string) error {
	path := filepath.Join(dir, formatFile)
	got, err := os.ReadFile(path)
	switch {
	case err == nil && validFormatMarker(string(got)):
		if s := string(got); s != want {
			return fmt.Errorf("journal: dir %s holds %q records, not %q — "+
				"reopen with the matching -journal-pool setting", dir, s, want)
		}
		return nil
	case err != nil && !os.IsNotExist(err):
		return fmt.Errorf("journal: format marker: %w", err)
	}
	return writeFormatMarker(dir, path, want)
}

// validFormatMarker recognizes intact marker contents.
func validFormatMarker(s string) bool {
	if s == "single" {
		return true
	}
	var n int
	_, err := fmt.Sscanf(s, "pooled %d", &n)
	return err == nil && n > 1
}

// writeFormatMarker lands the marker atomically and durably.
func writeFormatMarker(dir, path, want string) error {
	tmp, err := os.CreateTemp(dir, formatFile+".tmp-*")
	if err != nil {
		return fmt.Errorf("journal: format marker: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.WriteString(want); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return fmt.Errorf("journal: format marker: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("journal: format marker: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("journal: format marker: %w", err)
	}
	// Sync the directory so the marker survives power loss — it is written
	// before any lane file is created, so a durable marker means the lane
	// layout can never exist without its lane count on record.
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: format marker: %w", err)
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return fmt.Errorf("journal: format marker: %w", err)
	}
	return d.Close()
}

// snapshotDue is the cadence policy: the fixed record count when
// SnapshotEvery is set, otherwise adaptive — bytes since the last snapshot,
// or the estimated replay time of the un-snapshotted log (records × the
// per-record cost measured during the last recovery).
func snapshotDue(opts Options, records, bytes, perRecordNs int64) bool {
	if opts.SnapshotEvery > 0 {
		return records >= int64(opts.SnapshotEvery)
	}
	if bytes >= opts.SnapshotBytes {
		return true
	}
	if perRecordNs <= 0 {
		perRecordNs = defaultReplayNsPerRecord
	}
	return time.Duration(records*perRecordNs) >= opts.TargetReplay
}

// defaultReplayNsPerRecord estimates replay cost before any measured
// recovery: ~2µs/record, the order observed for share/pending records.
const defaultReplayNsPerRecord = 2000

// observeReplayCost records a measured per-record replay cost (floored so a
// cached tiny replay cannot push the estimate to zero and disable the
// replay-time trigger).
func observeReplayCost(dst *atomic.Int64, d time.Duration, records int) {
	if records <= 0 {
		return
	}
	per := int64(d) / int64(records)
	if per < 500 {
		per = 500
	}
	dst.Store(per)
}

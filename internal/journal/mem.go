package journal

import (
	"sync"
)

// MemJournal is the in-memory journal backend: the full Backend
// contract (append, replay, snapshot compaction) without any files. It
// backs tests — backend-differential suites, fault injection via
// SetAppendError, and harnesses that restart nodes without a disk — and is
// deliberately not durable: a MemJournal only survives a restart if the
// harness hands the same object to the next incarnation.
type MemJournal struct {
	opts Options

	mu         sync.Mutex
	snap       [][]byte
	recs       [][]byte
	bytes      int64
	failErr    error
	compacting bool
}

// NewMemJournal builds an empty in-memory backend. Only the snapshot-cadence
// fields of opts are consulted.
func NewMemJournal(opts Options) *MemJournal {
	return &MemJournal{opts: opts.withDefaults()}
}

// SetAppendError injects (or clears, with nil) a failure returned by every
// subsequent Append — the lever of the Strict-policy fault tests.
func (m *MemJournal) SetAppendError(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failErr = err
}

// Replay implements Backend.
func (m *MemJournal) Replay(fn func(payload []byte) error) error {
	m.mu.Lock()
	all := make([][]byte, 0, len(m.snap)+len(m.recs))
	all = append(all, m.snap...)
	all = append(all, m.recs...)
	m.mu.Unlock()
	for _, rec := range all {
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// Append implements Backend.
func (m *MemJournal) Append(recs [][]byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failErr != nil {
		return m.failErr
	}
	for _, r := range recs {
		m.recs = append(m.recs, append([]byte(nil), r...))
		m.bytes += int64(len(r))
	}
	return nil
}

// MaybeSnapshot implements Backend: a synchronous log compaction
// when the cadence triggers. Records appended while the state capture runs
// are kept — their mutations may postdate the capture — mirroring the
// file engine's seal-then-capture rule.
func (m *MemJournal) MaybeSnapshot(state StateSource, done func(error)) {
	m.mu.Lock()
	due := !m.compacting && snapshotDue(m.opts, int64(len(m.recs)), m.bytes, defaultReplayNsPerRecord)
	cut := len(m.recs)
	if due {
		m.compacting = true
	}
	m.mu.Unlock()
	if !due {
		return
	}
	recs := state(0, 1)
	m.mu.Lock()
	m.snap = recs
	m.recs = append([][]byte(nil), m.recs[cut:]...)
	m.bytes = 0
	for _, r := range m.recs {
		m.bytes += int64(len(r))
	}
	m.compacting = false
	m.mu.Unlock()
	done(nil)
}

// Records returns how many un-compacted records the log holds (tests).
func (m *MemJournal) Records() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.recs)
}

// Sync implements Backend (a no-op: memory has no stable storage).
func (m *MemJournal) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failErr
}

// Close implements Backend (a no-op: the object keeps its records,
// so a harness can recover the next incarnation from it).
func (m *MemJournal) Close() error { return nil }

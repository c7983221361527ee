package bb

import (
	"sync/atomic"
	"time"

	"ddemos/internal/journal"
)

// Metrics collects a BB node's operational counters for the publish phase,
// mirroring vc.Metrics. Everything is updated atomically; read a coherent
// copy with Node.Metrics().
type Metrics struct {
	PostsAccepted     atomic.Int64 // trustee posts stored after signature + shape checks
	PostsRejected     atomic.Int64 // trustee posts refused at ingress
	PostEquivocations atomic.Int64 // duplicate trustee posts with a different signed payload
	SetEquivocations  atomic.Int64 // vote-set submissions conflicting with the VC's pinned set
	BadPostBlames     atomic.Int64 // posts identified as bad by the blame protocol
	CombineAttempts   atomic.Int64 // combine passes over a candidate subset
	CombineNanos      atomic.Int64 // cumulative wall time spent in combine attempts
	BatchFallbacks    atomic.Int64 // batch-verify chunks re-checked per element
	journal.Counters               // JournalRecords, JournalErrors, Snapshots
}

// Snapshot is a point-in-time copy of the metrics.
type Snapshot struct {
	PostsAccepted     int64
	PostsRejected     int64
	PostEquivocations int64
	SetEquivocations  int64
	BadPostBlames     int64
	CombineAttempts   int64
	CombineTime       time.Duration
	BatchFallbacks    int64
	JournalRecords    int64
	JournalErrors     int64
	Snapshots         int64
	ResultPublished   bool
}

// Metrics returns a snapshot of the node's counters.
func (n *Node) Metrics() Snapshot {
	s := Snapshot{
		PostsAccepted:     n.metrics.PostsAccepted.Load(),
		PostsRejected:     n.metrics.PostsRejected.Load(),
		PostEquivocations: n.metrics.PostEquivocations.Load(),
		SetEquivocations:  n.metrics.SetEquivocations.Load(),
		BadPostBlames:     n.metrics.BadPostBlames.Load(),
		CombineAttempts:   n.metrics.CombineAttempts.Load(),
		CombineTime:       time.Duration(n.metrics.CombineNanos.Load()),
		BatchFallbacks:    n.metrics.BatchFallbacks.Load(),
		JournalRecords:    n.metrics.JournalRecords.Load(),
		JournalErrors:     n.metrics.JournalErrors.Load(),
		Snapshots:         n.metrics.Snapshots.Load(),
	}
	n.mu.Lock()
	s.ResultPublished = n.result != nil
	n.mu.Unlock()
	return s
}

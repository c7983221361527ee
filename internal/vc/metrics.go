package vc

import (
	"sync/atomic"
	"time"

	"ddemos/internal/journal"
	"ddemos/internal/store"
)

// Metrics collects the node's operational counters. The per-step timing
// sums instrument the liveness analysis of §IV-A (Table I): EndorseNanos
// covers vote receipt through UCERT formation, VoteNanos the full
// receipt-issuing path.
type Metrics struct {
	VotesAccepted atomic.Int64
	BadMessages   atomic.Int64
	BadShares     atomic.Int64
	SendErrors    atomic.Int64
	Recoveries    atomic.Int64

	journal.Counters              // JournalRecords, JournalErrors, Snapshots
	StrictRefusals   atomic.Int64 // acks refused under Policy: Strict

	// UCERT signature checks (vote path and vote-set consensus alike): how
	// many went to Ed25519, and how many the node skipped because it already
	// holds the byte-identical verified signature (see verifyCerts).
	CertSigVerifies atomic.Int64
	CertSigMemoHits atomic.Int64

	// EA ballot-root signature checks on disclosed shares: how many went to
	// sig.VerifyMany (which checks identical ones once), and how many shares
	// folded to the root the node already holds verified for that ballot
	// (see onVotePBatch).
	RootSigVerifies atomic.Int64
	RootSigMemoHits atomic.Int64

	EndorseNanos atomic.Int64 // cumulative endorsement-phase time (responder)
	EndorseCount atomic.Int64
	VoteNanos    atomic.Int64 // cumulative full vote time (responder)
	VoteCount    atomic.Int64
}

func (m *Metrics) observeEndorse(d time.Duration) {
	m.EndorseNanos.Add(int64(d))
	m.EndorseCount.Add(1)
}

func (m *Metrics) observeVote(d time.Duration) {
	m.VoteNanos.Add(int64(d))
	m.VoteCount.Add(1)
}

// Snapshot is a point-in-time copy of the metrics.
type Snapshot struct {
	VotesAccepted int64
	BadMessages   int64
	BadShares     int64
	SendErrors    int64
	Recoveries    int64
	// LinkDrops counts inter-VC frames whose link tag failed, on a node
	// brought up by Open (zero otherwise).
	LinkDrops int64

	JournalRecords int64
	JournalErrors  int64
	Snapshots      int64
	StrictRefusals int64

	CertSigVerifies int64
	CertSigMemoHits int64
	RootSigVerifies int64
	RootSigMemoHits int64

	// Ballot-store cache counters, populated when the node's store is a
	// store.Cached (zero otherwise). StoreShared counts misses that joined
	// another Get's in-flight read — the single-flight win.
	StoreHits      int64
	StoreMisses    int64
	StoreShared    int64
	StoreEvictions int64
	StoreBytes     int64

	AvgEndorse time.Duration
	AvgVote    time.Duration
}

// Metrics returns a snapshot of the node's counters.
func (n *Node) Metrics() Snapshot {
	s := Snapshot{
		VotesAccepted: n.metrics.VotesAccepted.Load(),
		BadMessages:   n.metrics.BadMessages.Load(),
		BadShares:     n.metrics.BadShares.Load(),
		SendErrors:    n.metrics.SendErrors.Load(),
		Recoveries:    n.metrics.Recoveries.Load(),

		JournalRecords: n.metrics.JournalRecords.Load(),
		JournalErrors:  n.metrics.JournalErrors.Load(),
		Snapshots:      n.metrics.Snapshots.Load(),
		StrictRefusals: n.metrics.StrictRefusals.Load(),

		CertSigVerifies: n.metrics.CertSigVerifies.Load(),
		CertSigMemoHits: n.metrics.CertSigMemoHits.Load(),
		RootSigVerifies: n.metrics.RootSigVerifies.Load(),
		RootSigMemoHits: n.metrics.RootSigMemoHits.Load(),
	}
	if n.links != nil {
		s.LinkDrops = n.links.Dropped()
	}
	if c, ok := n.st.(*store.Cached); ok {
		cs := c.Stats()
		s.StoreHits = cs.Hits
		s.StoreMisses = cs.Misses
		s.StoreShared = cs.Shared
		s.StoreEvictions = cs.Evictions
		s.StoreBytes = cs.Bytes
	}
	if c := n.metrics.EndorseCount.Load(); c > 0 {
		s.AvgEndorse = time.Duration(n.metrics.EndorseNanos.Load() / c)
	}
	if c := n.metrics.VoteCount.Load(); c > 0 {
		s.AvgVote = time.Duration(n.metrics.VoteNanos.Load() / c)
	}
	return s
}

// Package store holds a Vote Collector node's initialization data: per
// ballot, per part, the shuffled ⟨hash-commitment, salt, receipt-share⟩
// lines of §III-D, plus the write-ahead log (wal.go) the VC journal builds
// on. Four Store implementations cover the paper's storage ablation and the
// millions-of-ballots target:
//
//   - Mem: an in-memory map — the paper's "database eliminated" cache
//     configuration used for the Fig. 4 scalability runs.
//   - Disk: one flat fixed-record file (v3), standing in for the paper's
//     PostgreSQL store; lookups cost one positional read.
//   - Segmented: the pool sharded by serial range across fixed-record
//     segment files plus a manifest. A streaming Writer lets EA setup emit
//     segments without holding the whole pool in memory; each segment file
//     is itself a valid flat store, so OpenDisk keeps working.
//   - Cached: a byte-bounded, admission-controlled LRU over any Store with
//     single-flight loading, recovering most of Mem's speed on pools that
//     outgrow the budget (the cache-vs-database effect of Fig. 5a).
//
// See DESIGN.md "Ballot store read path" for the layout and the eviction /
// admission rationale. The end-to-end benchmark under bench/ measures the
// shipped Segmented+Cached read path under live voting (store.get_us_p50,
// store.hit_rate).
package store

import (
	"errors"
	"fmt"
)

// Line is one stored ballot line (one vote-code row on one part, in
// shuffled order).
type Line struct {
	Hash  [32]byte // SHA256(vote-code || salt)
	Salt  [8]byte
	Share [32]byte // this node's receipt share (scalar, 32 bytes)
}

// BallotData is everything a VC node knows about one ballot at setup.
type BallotData struct {
	Serial uint64
	// Lines[part][row], rows in the same shuffled order as the BB payload.
	Lines [2][]Line
	// ShareSig is the EA's signature over the ballot's root: the Merkle root
	// over every node's share root (ea.ShareRoot). All nodes hold the same.
	ShareSig [64]byte
	// NodePath is this node's share root's audit path in that tree, 32-byte
	// hashes, the same number for every ballot of a node.
	NodePath []byte
}

// Store is the ballot-data access interface used by the VC node. Get must
// be safe for concurrent use.
type Store interface {
	// Get returns the ballot data for serial, or ErrNotFound.
	Get(serial uint64) (*BallotData, error)
	// Count returns the number of ballots.
	Count() int
	// Close releases resources.
	Close() error
}

// ErrNotFound is returned for unknown serial numbers.
var ErrNotFound = errors.New("store: ballot not found")

// Mem is the in-memory store.
type Mem struct {
	ballots map[uint64]*BallotData
}

var _ Store = (*Mem)(nil)

// NewMem builds an in-memory store from setup data.
func NewMem(ballots []*BallotData) *Mem {
	m := &Mem{ballots: make(map[uint64]*BallotData, len(ballots))}
	for _, b := range ballots {
		m.ballots[b.Serial] = b
	}
	return m
}

// Get implements Store.
func (m *Mem) Get(serial uint64) (*BallotData, error) {
	b, ok := m.ballots[serial]
	if !ok {
		return nil, fmt.Errorf("%w: serial %d", ErrNotFound, serial)
	}
	return b, nil
}

// Count implements Store.
func (m *Mem) Count() int { return len(m.ballots) }

// Close implements Store.
func (m *Mem) Close() error { return nil }

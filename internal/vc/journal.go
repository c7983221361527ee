package vc

import (
	"errors"
	"fmt"
	"math/big"
	"sort"

	"ddemos/internal/codec"
	"ddemos/internal/crypto/group"
	"ddemos/internal/crypto/shamir"
	"ddemos/internal/journal"
	"ddemos/internal/wire"
)

// This file is the durable-runtime-state layer of a VC node. The paper's
// deployment keeps per-ballot protocol state in PostgreSQL so a crashed
// Vote Collector rejoins within the fault bound (§V); here the same role is
// played by internal/journal — write-ahead-log lanes of ballot state
// transitions plus periodic snapshots. What lives here is what is the VC's:
// the record kinds and their one walk (record.walk), replay, the snapshot
// payload, and the strict/available ack decisions.
//
// Every externally visible promise is journaled before it is made: the
// endorsed code before the ENDORSEMENT reply, the pending binding and
// disclosed share before VOTE_P, the receipt before it is released to a
// waiter, the agreed vote set before it is returned. Records are *facts*
// (monotone transitions), so replay is order-independent and idempotent:
// applying a record the state already reflects is a no-op. That makes
// snapshot+log disagreement benign — a crash between snapshot rename and
// segment deletion replays records the snapshot already covers — and lets
// call sites append outside the ballot locks.
//
// Record kinds (payload layout over internal/codec; "bytes" = u32 length
// prefix, "cert" = wire.UCert.Walk, the vote set = wire.WalkVoteSet).
// Every record opens with `kind u8 | key u64`, the journal's routing rule;
// the key is the ballot serial, and 0 (lane 0) for the vote set:
//
//	endorsed:  kind u8 | serial u64 | code bytes
//	ucert:     kind u8 | serial u64 | cert
//	pending:   kind u8 | serial u64 | code bytes | part u8 | row u32 | cert
//	share:     kind u8 | serial u64 | index u32 | value bytes
//	voted:     kind u8 | serial u64 | code bytes | receipt bytes
//	vsc:       kind u8 | 0 u64 | count u32 | { serial u64 | code bytes }*
//
// Kind 6 was the keyless vote-set record of journals that predate the
// routing rule; it now fails replay as an unknown kind.
const (
	recEndorsed byte = iota + 1
	recUCert
	recPending
	recShare
	recVoted
	_
	recVSC
)

// The journal names the frozen bench/ module spells through this package.
// Everything else journal-shaped is imported from internal/journal.
type (
	JournalOptions = journal.Options
	AckPolicy      = journal.AckPolicy
)

// PolicyStrict is journal.PolicyStrict.
const PolicyStrict = journal.PolicyStrict

// OpenJournal is journal.Open.
func OpenJournal(dir string, opts journal.Options) (journal.Backend, error) {
	return journal.Open(dir, opts)
}

// --- records ----------------------------------------------------------------

// record is one journal record: its kind, its key (the ballot serial, 0 for
// the vote set) and the fields its kind lays out.
type record struct {
	kind    byte
	serial  uint64
	code    []byte
	part    uint8
	row     int
	cert    *wire.UCert
	share   shamir.Share
	receipt []byte
	set     *[]VotedBallot
}

// walk is the one layout of each record kind, for the appends, the state
// capture and replay alike.
func (r *record) walk(c *codec.Coder) {
	c.U8(&r.kind)
	c.U64(&r.serial)
	switch r.kind {
	case recEndorsed:
		c.Bytes(&r.code, codec.AnyLen)
	case recPending:
		c.Bytes(&r.code, codec.AnyLen)
		c.U8(&r.part)
		c.Int(&r.row)
		fallthrough
	case recUCert:
		if c.Decoding() {
			r.cert = new(wire.UCert)
		}
		r.cert.Walk(c)
	case recShare:
		c.U32(&r.share.Index)
		var value []byte
		if !c.Decoding() {
			value = group.ScalarBytes(r.share.Value)
		}
		if c.Bytes(&value, codec.AnyLen); c.Decoding() {
			var err error
			if r.share.Value, err = group.DecodeScalar(value); err != nil {
				c.Fail()
			}
		}
	case recVoted:
		c.Bytes(&r.code, codec.AnyLen)
		c.Bytes(&r.receipt, codec.AnyLen)
	case recVSC:
		if c.Decoding() {
			r.set = new([]VotedBallot)
		}
		wire.WalkVoteSet(c, r.set)
	default:
		c.Fail()
	}
}

// bytes encodes the record. The first allocation holds the small kinds whole.
func (r record) bytes() []byte {
	c := codec.Encoder(make([]byte, 0, 64))
	r.walk(c)
	return c.Out()
}

// EncodeVotedRecord builds a realistic voted-transition journal record —
// exported for the journal benchmarks (RunPoolAblation, bench/), which
// drive the engine directly with protocol-shaped records.
func EncodeVotedRecord(serial uint64, code, receipt []byte) []byte {
	return record{kind: recVoted, serial: serial, code: code, receipt: receipt}.bytes()
}

// errBadRecord wraps journal decode failures (CRC passed but the payload
// does not parse: version skew or a foreign file).
var errBadRecord = errors.New("vc: malformed journal record")

// --- node recovery ---------------------------------------------------------

// RecoverWithOptions rebuilds the node's runtime ballot state from the
// snapshot and write-ahead log in dir (both may be absent on first boot),
// opened with opts, and attaches the journal so every later transition is
// logged there. It must be called after New and before Start; Open calls
// it. Recovery is idempotent: recovering the same directory twice yields an
// identical StateHash.
func (n *Node) RecoverWithOptions(dir string, opts journal.Options) error {
	j, err := journal.Open(dir, opts)
	if err != nil {
		return err
	}
	if err := n.RecoverBackend(j, opts.Policy); err != nil {
		_ = j.Close()
		return err
	}
	return nil
}

// RecoverBackend replays an already opened backend into the node and
// attaches it — the entry point for custom backends (in-memory, fault
// injection). The caller keeps ownership of the backend until this returns
// nil; afterwards Stop closes it.
func (n *Node) RecoverBackend(j journal.Backend, policy journal.AckPolicy) error {
	if err := j.Replay(n.applyJournalRecord); err != nil {
		return err
	}
	n.finishRecovery()
	n.journal = j
	n.journalPolicy = policy
	return nil
}

// applyJournalRecord applies one persisted transition. Application is
// idempotent and order-independent: every record is a monotone fact, so
// duplicates and stale records (snapshot+log overlap, interleaved append
// order across goroutines) are no-ops.
func (n *Node) applyJournalRecord(payload []byte) error {
	var r record
	c := codec.Decoder(payload)
	if r.walk(c); !c.Done() {
		return fmt.Errorf("%w: kind %d", errBadRecord, r.kind)
	}
	if r.kind == recVSC {
		if r.serial != 0 || len(*r.set) > n.manifest.NumBallots {
			return errBadRecord
		}
		n.vscMu.Lock()
		if !n.vscDone {
			n.vscDone = true
			n.vscResult = *r.set
		}
		n.vscDurable = true // replayed from the journal, so it is on disk
		n.vscMu.Unlock()
		return nil
	}
	if r.serial == 0 || r.serial > uint64(n.manifest.NumBallots) {
		return errBadRecord
	}
	st := n.state(r.serial)
	st.mu.Lock()
	defer st.mu.Unlock()
	switch r.kind {
	case recEndorsed:
		if st.endorsedCode == nil {
			st.endorsedCode = r.code
		}
		st.endorsedDurable = true
	case recUCert:
		installCertLocked(st, r.cert.Code, r.cert)
	case recPending:
		installCertLocked(st, r.code, r.cert)
		st.part, st.row = r.part, r.row
		st.bindingDurable = true
	case recShare:
		if st.shares == nil {
			st.shares = make(map[uint32]*big.Int, n.hv)
		}
		if _, ok := st.shares[r.share.Index]; !ok {
			st.shares[r.share.Index] = r.share.Value
		}
		if r.share.Index == uint32(n.self)+1 {
			st.sentVoteP = true
		}
	case recVoted:
		if st.usedCode == nil {
			st.usedCode = r.code
		}
		st.status = Voted
		if st.receipt == nil {
			st.receipt = r.receipt
		}
		st.receiptDurable = true
	}
	return nil
}

// installCertLocked raises a ballot to (at least) Pending under a known
// certificate. Caller holds st.mu. The certificate came from our own
// journal: it verified before it was logged, so it is not re-verified.
func installCertLocked(st *ballotState, code []byte, cert *wire.UCert) {
	if st.cert == nil {
		st.cert = cert
	}
	if st.usedCode == nil {
		st.usedCode = code
	}
	if st.status == NotVoted {
		st.status = Pending
	}
}

// finishRecovery reconstructs receipts for ballots whose journal holds a
// reconstruction-threshold share set but no voted record (a crash between
// the last share landing and the receipt record).
func (n *Node) finishRecovery() {
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.Lock()
		states := make(map[uint64]*ballotState, len(sh.ballots))
		for serial, st := range sh.ballots {
			states[serial] = st
		}
		sh.mu.Unlock()
		for serial, st := range states {
			st.mu.Lock()
			// The journal already holds the shares this derives from, so
			// the record and waiters (none at recovery) are dropped.
			n.maybeReconstructLocked(serial, st)
			st.mu.Unlock()
		}
	}
}

// --- journaling hooks ------------------------------------------------------

// strictJournal reports whether a journal failure must refuse the dependent
// ack (Policy: Strict on a journaled node).
func (n *Node) strictJournal() bool {
	return n.journal != nil && n.journalPolicy == journal.PolicyStrict
}

// journalAppend logs transition records (no-op without a journal), returning
// nil once they are appended. What "appended" buys is the fsync policy's
// call: records reach the OS before any ack (process-crash safe), and
// journal.Options.Fsync upgrades that to per-record power-loss durability —
// Strict deployments should pair with it. Must not be called while holding
// any ballot or shard lock: a snapshot triggered here serializes state under
// those locks. On append failure the error is counted and returned — call
// sites that gate an external ack consult strictJournal() to decide between
// refusing the ack (Strict) and serving from memory (Available; DESIGN.md,
// "Durability and recovery").
func (n *Node) journalAppend(recs ...[]byte) error {
	if n.journal == nil || len(recs) == 0 {
		return nil
	}
	return journal.Log(n.journal, &n.metrics.Counters, n.laneState, recs)
}

// laneState is the node's StateSource: lane's share of the runtime state
// (every ballot whose serial hashes to lane, plus the consensus result in
// lane 0) as journal records; (0, 1) is the whole state, the basis of
// StateHash. Deterministic: ballots ordered by serial, shares by index.
func (n *Node) laneState(lane, lanes int) [][]byte {
	type entry struct {
		serial uint64
		st     *ballotState
	}
	var entries []entry
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.Lock()
		for serial, st := range sh.ballots {
			if journal.KeyLane(serial, lanes) == lane {
				entries = append(entries, entry{serial, st})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(entries, func(i, k int) bool { return entries[i].serial < entries[k].serial })
	var out [][]byte
	for _, e := range entries {
		st := e.st
		st.mu.Lock()
		if st.endorsedCode != nil {
			out = append(out, record{kind: recEndorsed, serial: e.serial, code: st.endorsedCode}.bytes())
		}
		if st.cert != nil {
			out = append(out, record{kind: recPending, serial: e.serial, code: st.usedCode,
				part: st.part, row: st.row, cert: st.cert}.bytes())
		}
		idxs := make([]uint32, 0, len(st.shares))
		for idx := range st.shares {
			idxs = append(idxs, idx)
		}
		sort.Slice(idxs, func(i, k int) bool { return idxs[i] < idxs[k] })
		for _, idx := range idxs {
			out = append(out, record{kind: recShare, serial: e.serial,
				share: shamir.Share{Index: idx, Value: st.shares[idx]}}.bytes())
		}
		if st.status == Voted {
			out = append(out, record{kind: recVoted, serial: e.serial, code: st.usedCode, receipt: st.receipt}.bytes())
		}
		st.mu.Unlock()
	}
	if lane == 0 {
		n.vscMu.Lock()
		if n.vscDone {
			out = append(out, record{kind: recVSC, set: &n.vscResult}.bytes())
		}
		n.vscMu.Unlock()
	}
	return out
}

// StateHash digests the node's runtime ballot state. Two nodes (or one node
// before and after a recover cycle) with identical state hash identically —
// the acceptance check for recovery idempotence.
func (n *Node) StateHash() [32]byte {
	return journal.HashRecords(n.laneState(0, 1))
}

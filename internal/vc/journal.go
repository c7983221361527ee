package vc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"sort"

	"ddemos/internal/crypto/group"
	"ddemos/internal/journal"
	"ddemos/internal/wire"
)

// This file is the durable-runtime-state layer of a VC node. The paper's
// deployment keeps per-ballot protocol state in PostgreSQL so a crashed
// Vote Collector rejoins within the fault bound (§V); here the same role is
// played by internal/journal — write-ahead-log lanes of ballot state
// transitions plus periodic snapshots. What lives here is what is the VC's:
// the record kinds, their encoders, replay, the snapshot payload, and the
// strict/available ack decisions.
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
// Record kinds (payload layout, big-endian; "bytes" = u32 length prefix).
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

// --- record encoding -------------------------------------------------------

func encEndorsed(serial uint64, code []byte) []byte {
	return journal.AppendBytes(journal.Header(recEndorsed, serial), code)
}

func encUCert(serial uint64, cert *wire.UCert) []byte {
	return append(journal.Header(recUCert, serial), wire.MarshalUCert(cert)...)
}

func encPending(serial uint64, code []byte, part uint8, row int, cert *wire.UCert) []byte {
	dst := journal.AppendBytes(journal.Header(recPending, serial), code)
	dst = append(dst, part)
	dst = binary.BigEndian.AppendUint32(dst, uint32(row)) //nolint:gosec // row < m
	return append(dst, wire.MarshalUCert(cert)...)
}

func encShare(serial uint64, index uint32, value *big.Int) []byte {
	dst := binary.BigEndian.AppendUint32(journal.Header(recShare, serial), index)
	return journal.AppendBytes(dst, group.ScalarBytes(value))
}

func encVoted(serial uint64, code, receipt []byte) []byte {
	return journal.AppendBytes(journal.AppendBytes(journal.Header(recVoted, serial), code), receipt)
}

// EncodeVotedRecord builds a realistic voted-transition journal record —
// exported for the journal benchmarks (RunPoolAblation, bench/), which
// drive the engine directly with protocol-shaped records.
func EncodeVotedRecord(serial uint64, code, receipt []byte) []byte {
	return encVoted(serial, code, receipt)
}

func encVSC(set []VotedBallot) []byte {
	dst := binary.BigEndian.AppendUint32(journal.Header(recVSC, 0), uint32(len(set))) //nolint:gosec // protocol-bounded
	for _, vb := range set {
		dst = binary.BigEndian.AppendUint64(dst, vb.Serial)
		dst = journal.AppendBytes(dst, vb.Code)
	}
	return dst
}

// decCert reads a certificate off the cursor.
func decCert(d *journal.Dec) *wire.UCert {
	if d.Bad {
		return nil
	}
	u, rest, err := wire.UnmarshalUCert(d.Buf)
	if err != nil {
		d.Bad = true
		return nil
	}
	d.Buf = rest
	return &u
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
	d := &journal.Dec{Buf: payload}
	kind := d.U8()
	if kind == recVSC {
		if d.U64() != 0 {
			return errBadRecord
		}
		cnt := d.U32()
		if d.Bad || uint64(cnt) > uint64(n.manifest.NumBallots) {
			return errBadRecord
		}
		set := make([]VotedBallot, 0, cnt)
		for i := uint32(0); i < cnt; i++ {
			set = append(set, VotedBallot{Serial: d.U64(), Code: d.Bytes()})
		}
		if d.Bad || len(d.Buf) != 0 {
			return errBadRecord
		}
		n.vscMu.Lock()
		if !n.vscDone {
			n.vscDone = true
			n.vscResult = set
		}
		n.vscDurable = true // replayed from the journal, so it is on disk
		n.vscMu.Unlock()
		return nil
	}
	serial := d.U64()
	if d.Bad || serial == 0 || serial > uint64(n.manifest.NumBallots) {
		return errBadRecord
	}
	st := n.state(serial)
	st.mu.Lock()
	defer st.mu.Unlock()
	switch kind {
	case recEndorsed:
		code := d.Bytes()
		if d.Bad {
			return errBadRecord
		}
		if st.endorsedCode == nil {
			st.endorsedCode = code
		}
		st.endorsedDurable = true
	case recUCert:
		cert := decCert(d)
		if d.Bad || cert == nil {
			return errBadRecord
		}
		installCertLocked(st, cert.Code, cert)
	case recPending:
		code := d.Bytes()
		part := d.U8()
		row := d.U32()
		cert := decCert(d)
		if d.Bad || cert == nil {
			return errBadRecord
		}
		installCertLocked(st, code, cert)
		st.part, st.row = part, int(row)
		st.bindingDurable = true
	case recShare:
		index := d.U32()
		value := d.Bytes()
		if d.Bad {
			return errBadRecord
		}
		v, err := group.DecodeScalar(value)
		if err != nil {
			return fmt.Errorf("%w: share value: %v", errBadRecord, err)
		}
		if st.shares == nil {
			st.shares = make(map[uint32]*big.Int, n.hv)
		}
		if _, ok := st.shares[index]; !ok {
			st.shares[index] = v
		}
		if index == uint32(n.self)+1 {
			st.sentVoteP = true
		}
	case recVoted:
		code := d.Bytes()
		receipt := d.Bytes()
		if d.Bad {
			return errBadRecord
		}
		if st.usedCode == nil {
			st.usedCode = code
		}
		st.status = Voted
		if st.receipt == nil {
			st.receipt = receipt
		}
		st.receiptDurable = true
	default:
		return fmt.Errorf("%w: unknown kind %d", errBadRecord, kind)
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
			out = append(out, encEndorsed(e.serial, st.endorsedCode))
		}
		if st.cert != nil {
			out = append(out, encPending(e.serial, st.usedCode, st.part, st.row, st.cert))
		}
		idxs := make([]uint32, 0, len(st.shares))
		for idx := range st.shares {
			idxs = append(idxs, idx)
		}
		sort.Slice(idxs, func(i, k int) bool { return idxs[i] < idxs[k] })
		for _, idx := range idxs {
			out = append(out, encShare(e.serial, idx, st.shares[idx]))
		}
		if st.status == Voted {
			out = append(out, encVoted(e.serial, st.usedCode, st.receipt))
		}
		st.mu.Unlock()
	}
	if lane == 0 {
		n.vscMu.Lock()
		if n.vscDone {
			out = append(out, encVSC(n.vscResult))
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

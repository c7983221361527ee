package bb

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math/big"
	"sort"

	"ddemos/internal/crypto/group"
	"ddemos/internal/journal"
	"ddemos/internal/vc"
)

// This file is the durable-runtime-state layer of a BB replica, built on the
// internal/journal engine the Vote Collector uses. The journal version of
// the paper (arXiv:1608.00849) runs all runtime state on durable storage;
// here every externally-visible BB transition — an accepted vote-set
// submission, an accepted master-key share, an accepted trustee post, a
// blame verdict, the installed Result — is logged as one record.
//
// Ordering discipline: mutate, then append, then ack. A lane snapshot seals
// the active segment, captures the in-memory state, and deletes the sealed
// segment; it covers a sealed record only if that record's mutation was
// installed before its append returned. A record appended *before* its
// mutation could be sealed and deleted while the capture missed its effect
// — the record would be lost. Appending after the install closes that
// window: a crash between install and append loses the record, but no ack
// was given, so the submitter retries. The Strict ack policy strengthens
// this to "no ack without a durable record" via per-item durable flags: an
// append failure refuses the ack, and the duplicate fast path re-attempts
// the append on the retry. Result and blame installs have no ack to refuse
// and are journaled best-effort — a lost record is re-derived after
// recovery by recombining the journaled posts, and the perfectly-binding
// commitments make that recombination canonical (see combine.go).
//
// Record kinds (payload layout, big-endian; "bytes" = u32 length prefix):
//
//	set:    kind u8 | vcIndex u64 | count u32 | { serial u64 | code bytes }*
//	share:  kind u8 | index u64   | value bytes
//	post:   kind u8 | trustee u64 | gob(TrusteePost) bytes
//	blame:  kind u8 | trustee u64
//	result: kind u8 | 0 u64       | gob(Result) bytes
//
// Every record opens with `kind u8 | key u64`, the journal's routing rule;
// laneState mirrors it through journal.KeyLane. Kinds start at 0x11 to stay
// disjoint from the VC's record kinds (1..7), so a VC directory mistakenly
// opened by a BB node fails loudly at replay.
const (
	bbRecSet byte = iota + 0x11
	bbRecShare
	bbRecPost
	bbRecBlame
	bbRecResult
)

// errBadBBRecord wraps journal decode failures (CRC passed but the payload
// does not parse: version skew or a foreign file).
var errBadBBRecord = errors.New("bb: malformed journal record")

// ErrClosed is returned by write paths after Close.
var ErrClosed = errors.New("bb: node closed")

// --- record encoding -------------------------------------------------------

func encBBSet(vcIndex int, set []vc.VotedBallot) []byte {
	dst := journal.Header(bbRecSet, uint64(vcIndex))           //nolint:gosec // validated index
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(set))) //nolint:gosec // protocol-bounded
	for _, vb := range set {
		dst = binary.BigEndian.AppendUint64(dst, vb.Serial)
		dst = journal.AppendBytes(dst, vb.Code)
	}
	return dst
}

func encBBShare(index uint32, value *big.Int) []byte {
	dst := journal.Header(bbRecShare, uint64(index))
	return journal.AppendBytes(dst, group.ScalarBytes(value))
}

// encBBPost gob-encodes the post. Gob is canonical here: TrusteePost holds
// no maps, big.Int marshals by value (sign + magnitude, normalized on
// decode), and nil/empty slices collapse to the same omitted zero field —
// so encode(decode(encode(p))) == encode(p), which is what makes recovery a
// StateHash fixpoint.
func encBBPost(p *TrusteePost) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, err
	}
	dst := journal.Header(bbRecPost, uint64(p.Trustee)) //nolint:gosec // validated index
	return journal.AppendBytes(dst, buf.Bytes()), nil
}

func encBBBlame(trustee int) []byte {
	return journal.Header(bbRecBlame, uint64(trustee)) //nolint:gosec // validated index
}

func encBBResult(res *Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		return nil, err
	}
	dst := journal.Header(bbRecResult, 0)
	return journal.AppendBytes(dst, buf.Bytes()), nil
}

// --- node recovery ---------------------------------------------------------

// Recover rebuilds the node's runtime state (vote-set submissions, msk
// shares, trustee posts, blame verdicts, the Result) from the snapshot and
// write-ahead log in dir (both may be absent on first boot) and attaches
// the journal so every later transition is logged there. Recovery is
// idempotent: recovering the same directory twice yields an identical
// StateHash.
func (n *Node) Recover(dir string) error {
	return n.RecoverWithOptions(dir, journal.Options{})
}

// RecoverWithOptions is Recover with explicit durability tuning (pool size,
// sync cadence, snapshot cadence, ack policy).
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
// nil; afterwards Close closes it. The combine worker is re-kicked after
// the journal is attached, so blame verdicts and a Result derived from the
// replayed posts land in the journal like live ones.
func (n *Node) RecoverBackend(j journal.Backend, policy journal.AckPolicy) error {
	if err := j.Replay(n.applyJournalRecord); err != nil {
		return err
	}
	n.mu.Lock()
	n.finishRecoveryLocked()
	n.journal = j
	n.journalPolicy = policy
	n.kickCombineLocked()
	n.mu.Unlock()
	return nil
}

// applyJournalRecord applies one persisted transition. Records are monotone
// first-wins facts, so application is idempotent and order-independent —
// snapshot/log overlap and duplicate retry appends are no-ops. Signatures
// verified before a record was logged are not re-verified; structural shape
// is, because a panic on hostile bytes is worse than a refused recovery.
func (n *Node) applyJournalRecord(payload []byte) error {
	man := &n.init.Manifest
	d := &journal.Dec{Buf: payload}
	kind := d.U8()
	key := d.U64()
	switch kind {
	case bbRecSet:
		cnt := d.U32()
		if d.Bad || key >= uint64(man.NumVC) || uint64(cnt) > uint64(man.NumBallots) {
			return errBadBBRecord
		}
		set := make([]vc.VotedBallot, 0, cnt)
		for i := uint32(0); i < cnt; i++ {
			set = append(set, vc.VotedBallot{Serial: d.U64(), Code: d.Bytes()})
		}
		if d.Bad || len(d.Buf) != 0 {
			return errBadBBRecord
		}
		vcIndex := int(key) //nolint:gosec // bounds-checked
		n.mu.Lock()
		if _, ok := n.setSubs[vcIndex]; !ok {
			n.setSubs[vcIndex] = set
		}
		n.setDurable[vcIndex] = true
		n.mu.Unlock()
	case bbRecShare:
		value := d.Bytes()
		if d.Bad || len(d.Buf) != 0 || key == 0 || key > uint64(man.NumVC) {
			return errBadBBRecord
		}
		v, err := group.DecodeScalar(value)
		if err != nil {
			return fmt.Errorf("%w: share value: %v", errBadBBRecord, err)
		}
		index := uint32(key) //nolint:gosec // bounds-checked
		n.mu.Lock()
		if _, ok := n.mskShares[index]; !ok {
			n.mskShares[index] = v
		}
		n.shareDurable[index] = true
		n.mu.Unlock()
	case bbRecPost:
		blob := d.Bytes()
		if d.Bad || len(d.Buf) != 0 {
			return errBadBBRecord
		}
		p := new(TrusteePost)
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(p); err != nil {
			return fmt.Errorf("%w: trustee post: %v", errBadBBRecord, err)
		}
		if p.Trustee < 0 || p.Trustee >= man.NumTrustees || uint64(p.Trustee) != key ||
			p.ShareIndex != uint32(p.Trustee)+1 { //nolint:gosec // bounds-checked
			return errBadBBRecord
		}
		if err := validatePostScalars(p, len(man.Options)); err != nil {
			return fmt.Errorf("%w: trustee post: %v", errBadBBRecord, err)
		}
		hash := HashPost(man.ElectionID, p)
		n.mu.Lock()
		if _, ok := n.posts[p.Trustee]; !ok {
			n.posts[p.Trustee] = p
			n.postHash[p.Trustee] = hash
		}
		n.postDurable[p.Trustee] = true
		n.mu.Unlock()
	case bbRecBlame:
		if d.Bad || len(d.Buf) != 0 || key >= uint64(man.NumTrustees) {
			return errBadBBRecord
		}
		n.mu.Lock()
		n.badPosts[int(key)] = true //nolint:gosec // bounds-checked
		n.mu.Unlock()
	case bbRecResult:
		blob := d.Bytes()
		if d.Bad || len(d.Buf) != 0 || key != 0 {
			return errBadBBRecord
		}
		res := new(Result)
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(res); err != nil {
			return fmt.Errorf("%w: result: %v", errBadBBRecord, err)
		}
		if err := ValidateResultShape(res, len(man.Options)); err != nil {
			return fmt.Errorf("%w: result: %v", errBadBBRecord, err)
		}
		n.mu.Lock()
		if n.result == nil {
			n.result = res
			close(n.resultCh)
		}
		n.resultDurable = true
		n.mu.Unlock()
	default:
		return fmt.Errorf("%w: unknown kind %d", errBadBBRecord, kind)
	}
	return nil
}

// ValidateResultShape rejects a Result — replayed from a journal, or read
// off a board by an auditor — whose scalar slices could panic its consumers
// (gob decodes absent fields to nil pointers).
func ValidateResultShape(res *Result, m int) error {
	if len(res.Counts) != m || len(res.TallyMs) != m || len(res.TallyRs) != m {
		return errors.New("tally arity")
	}
	for j := 0; j < m; j++ {
		if res.TallyMs[j] == nil || res.TallyRs[j] == nil {
			return errors.New("nil tally opening")
		}
	}
	for i := range res.Openings {
		o := &res.Openings[i]
		if len(o.Ms) != m || len(o.Rs) != m {
			return errors.New("opening arity")
		}
		for j := 0; j < m; j++ {
			if o.Ms[j] == nil || o.Rs[j] == nil {
				return errors.New("nil opening")
			}
		}
	}
	for i := range res.Proofs {
		pf := &res.Proofs[i]
		if len(pf.Bits) != m {
			return errors.New("proof arity")
		}
		for j := range pf.Bits {
			b := &pf.Bits[j]
			if b.C0 == nil || b.C1 == nil || b.Z0 == nil || b.Z1 == nil {
				return errors.New("nil bit final")
			}
		}
		if pf.Sum.Z == nil {
			return errors.New("nil sum final")
		}
	}
	return nil
}

// finishRecoveryLocked derives the published state the journal does not
// store directly: the fv+1 vote-set quorum, the reconstructed master key,
// the cast data, and the per-post share indexes. Each derivation is
// order-independent — at most one vote-set value can reach fv+1 (two
// quorums would each need an honest VC, and honest VCs agree), any hv
// EA-verified shares reconstruct the same secret, and indexing a post
// depends only on the post and the cast data — so recovery lands on the
// same state the live node had, whatever order records were appended in.
// Caller holds n.mu.
func (n *Node) finishRecoveryLocked() {
	man := &n.init.Manifest
	if !n.haveSet {
		need := man.FaultyVC() + 1
		idxs := make([]int, 0, len(n.setSubs))
		for i := range n.setSubs {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			set := n.setSubs[i]
			count := 0
			for _, other := range n.setSubs {
				if voteSetsEqual(set, other) {
					count++
				}
			}
			if count >= need {
				n.voteSet = set
				n.haveSet = true
				break
			}
		}
	}
	n.tryReconstructMskLocked()
	// Re-index replayed posts against the republished cast data. A post
	// that cannot be indexed — a corrupt directory where the cast data (or
	// the post's required shares) went missing — is dropped and must be
	// resubmitted; its durable flag is cleared so a resubmission journals
	// a fresh record.
	for t, p := range n.posts {
		if n.shareIdx[t] != nil {
			continue
		}
		var idx *postShares
		if n.cast != nil {
			idx, _ = n.indexPost(p, n.usedParts)
		}
		if idx == nil {
			delete(n.posts, t)
			delete(n.postHash, t)
			delete(n.postDurable, t)
			continue
		}
		n.shareIdx[t] = idx
	}
}

// --- journaling hooks ------------------------------------------------------

// journaled reports whether a journal is attached (false after Close).
func (n *Node) journaled() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.journal != nil
}

// strictJournal reports whether a journal failure must refuse the dependent
// submission ack.
func (n *Node) strictJournal() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.journal != nil && n.journalPolicy == journal.PolicyStrict
}

// journalAppend logs transition records (no-op without a journal). Must not
// be called while holding n.mu: a backend may run the snapshot capture
// inside MaybeSnapshot (MemJournal does), and laneState takes n.mu.
func (n *Node) journalAppend(recs ...[]byte) error {
	n.mu.Lock()
	j := n.journal
	n.mu.Unlock()
	if j == nil || len(recs) == 0 {
		return nil
	}
	return journal.Log(j, &n.metrics.Counters, n.laneState, recs)
}

// journalSubmission logs the record behind an already-installed submission
// and settles the ack under the node's policy: Available counts an append
// failure and acks from memory; Strict refuses the ack, leaving the
// duplicate fast path to re-attempt the append when the submitter retries.
// mark runs under n.mu once the record is durable (it sets the per-item
// durable flag the fast path consults).
func (n *Node) journalSubmission(rec []byte, mark func()) error {
	if err := n.journalAppend(rec); err != nil {
		if n.strictJournal() {
			return fmt.Errorf("bb: submission accepted but not journaled under strict policy: %w", err)
		}
		return nil
	}
	n.mu.Lock()
	mark()
	n.mu.Unlock()
	return nil
}

// journalResult makes an installed Result durable. Best-effort by design:
// Strict governs submission acks, not installs — there is no ack to refuse
// here, and a lost result record is re-derived after recovery by
// recombining the journaled posts (canonically, since the commitments are
// perfectly binding).
func (n *Node) journalResult(res *Result) {
	if !n.journaled() {
		return
	}
	rec, err := encBBResult(res)
	if err != nil {
		n.metrics.JournalErrors.Add(1)
		return
	}
	if n.journalAppend(rec) == nil {
		n.mu.Lock()
		n.resultDurable = true
		n.mu.Unlock()
	}
}

// Close marks the node stopped and closes its journal, flushing buffered
// appends. Subsequent writes fail with ErrClosed; reads keep serving the
// in-memory state. A combine worker still in flight exits without
// installing, and its late appends hit the detached (closed) backend
// harmlessly — they can never touch the directory a restarted incarnation
// has reopened.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	j := n.journal
	n.journal = nil
	n.mu.Unlock()
	if j != nil {
		return j.Close()
	}
	return nil
}

// --- state serialization ---------------------------------------------------

// laneKeys returns the keys of m the journal routes to lane, ascending.
func laneKeys[K ~int | ~uint32, V any](m map[K]V, lane, lanes int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		if journal.KeyLane(uint64(k), lanes) == lane { //nolint:gosec // validated index
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// laneState is the node's StateSource: lane's share of the runtime state as
// journal records, routed by each record's key through the same hash the
// engine applied to the appends; (0, 1) is the whole state, the basis of
// StateHash. Deterministic: every map walks in sorted key order.
// Unencodable entries (cannot happen for state that came through ingress or
// replay; defensive) are skipped and counted — the corresponding WAL records
// then simply survive in their sealed segment.
func (n *Node) laneState(lane, lanes int) [][]byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out [][]byte
	for _, i := range laneKeys(n.setSubs, lane, lanes) {
		out = append(out, encBBSet(i, n.setSubs[i]))
	}
	for _, idx := range laneKeys(n.mskShares, lane, lanes) {
		out = append(out, encBBShare(idx, n.mskShares[idx]))
	}
	for _, t := range laneKeys(n.posts, lane, lanes) {
		rec, err := encBBPost(n.posts[t])
		if err != nil {
			n.metrics.JournalErrors.Add(1)
			continue
		}
		out = append(out, rec)
	}
	for _, t := range laneKeys(n.badPosts, lane, lanes) {
		out = append(out, encBBBlame(t))
	}
	if n.result != nil && journal.KeyLane(0, lanes) == lane {
		rec, err := encBBResult(n.result)
		if err != nil {
			n.metrics.JournalErrors.Add(1)
		} else {
			out = append(out, rec)
		}
	}
	return out
}

// StateHash digests the node's runtime state. Two nodes (or one node before
// and after a recover cycle) with identical state hash identically — the
// acceptance check for recovery idempotence, mirroring vc.Node.StateHash.
func (n *Node) StateHash() [32]byte {
	return journal.HashRecords(n.laneState(0, 1))
}

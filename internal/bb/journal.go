package bb

import (
	"errors"
	"fmt"
	"sort"

	"ddemos/internal/codec"
	"ddemos/internal/journal"
	"ddemos/internal/wire"
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
// Record kinds (payload layout, big-endian; "bytes" = u32 length prefix,
// codec.go the board encodings):
//
//	set:    0x11 | vcIndex u64 | vote set encoding (count u32 | { serial u64 | code bytes }*)
//	blame:  0x14 | trustee u64
//	post:   0x16 | trustee u64 | trustee post encoding, signature included
//	result: 0x17 | 0 u64       | result encoding
//	share:  0x18 | index u64   | master-key share encoding, signature included
//
// Every record opens with `kind u8 | key u64`, the journal's routing rule;
// laneState mirrors it through journal.KeyLane. Kinds start at 0x11 to stay
// disjoint from the VC's record kinds (1..7), so a VC directory mistakenly
// opened by a BB node fails loudly at replay. 0x12, 0x13 and 0x15 held bare
// share values and gob posts and results before the board encoding; a
// directory holding them is refused like any unknown kind — a BB journal is
// one election's runtime state, not an archive that outlives the binary that
// wrote it.
const (
	bbRecSet    byte = 0x11
	bbRecBlame  byte = 0x14
	bbRecPost   byte = 0x16
	bbRecResult byte = 0x17
	bbRecShare  byte = 0x18
)

// errBadBBRecord wraps journal decode failures (CRC passed but the payload
// does not parse: version skew or a foreign file).
var errBadBBRecord = errors.New("bb: malformed journal record")

// ErrClosed is returned by write paths after Close.
var ErrClosed = errors.New("bb: node closed")

func encBBBlame(trustee int) []byte {
	return journal.Header(bbRecBlame, uint64(trustee)) //nolint:gosec // validated index
}

// --- node recovery ---------------------------------------------------------

// RecoverWithOptions rebuilds the node's runtime state (vote-set
// submissions, msk shares, trustee posts, blame verdicts, the Result) from
// the snapshot and write-ahead log in dir (both may be absent on first
// boot), opened with opts, and attaches the journal so every later
// transition is logged there; Open calls it. Recovery is idempotent:
// recovering the same directory twice yields an identical StateHash.
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
// verified before a record was logged are not re-verified; structure is,
// because a panic on hostile bytes is worse than a refused recovery. The
// node keeps its own copy of each record: replay reuses its buffer.
func (n *Node) applyJournalRecord(payload []byte) error {
	man := &n.init.Manifest
	rec := append([]byte(nil), payload...)
	c := codec.Decoder(rec)
	var kind uint8
	var key uint64
	c.U8(&kind)
	if c.U64(&key); c.Bad() {
		return errBadBBRecord
	}
	body := c.Rest()
	n.mu.Lock()
	defer n.mu.Unlock()
	switch kind {
	case bbRecSet:
		set, err := decode(KindVoteSet, body, wire.WalkVoteSet)
		if err != nil || key >= uint64(man.NumVC) || checkSet(man, set) != nil {
			return errBadBBRecord
		}
		replayed(n.setRecs, int(key), rec) //nolint:gosec // bounds-checked
	case bbRecShare:
		s, err := decode(KindMskShare, body, walkMskShare)
		if err != nil || s.Index == 0 || int(s.Index) > man.NumVC || uint64(s.Index) != key {
			return errBadBBRecord
		}
		if n.shareRecs[s.Index] == nil {
			n.mskShares[s.Index] = s.Value
		}
		replayed(n.shareRecs, s.Index, rec)
	case bbRecPost:
		p, _, err := decodeTrusteePost(body)
		if err != nil {
			return fmt.Errorf("%w: trustee post: %v", errBadBBRecord, err)
		}
		if err := checkPost(man, p); err != nil || uint64(p.Trustee) != key { //nolint:gosec // checked
			return fmt.Errorf("%w: trustee post under key %d", errBadBBRecord, key)
		}
		if n.postRecs[p.Trustee] == nil {
			n.posts[p.Trustee] = p
		}
		replayed(n.postRecs, p.Trustee, rec)
	case bbRecBlame:
		if len(body) != 0 || key >= uint64(man.NumTrustees) {
			return errBadBBRecord
		}
		n.badPosts[int(key)] = true //nolint:gosec // bounds-checked
	case bbRecResult:
		res, err := decode(KindResult, body, walkResult)
		if err != nil || key != 0 {
			return errBadBBRecord
		}
		if err := ValidateResultShape(&res, len(man.Options)); err != nil {
			return fmt.Errorf("%w: result: %v", errBadBBRecord, err)
		}
		if n.result == nil {
			n.result, n.resultRec = &res, rec
			close(n.resultCh)
		}
	default:
		return fmt.Errorf("%w: unknown kind %#x", errBadBBRecord, kind)
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
	if n.setBytes == nil {
		for _, it := range n.setRecs {
			if set := it.rec[journal.HeaderLen:]; n.quorumLocked(set) {
				n.voteSet, _ = decode(KindVoteSet, set, wire.WalkVoteSet) // validated at replay
				n.setBytes = set
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
			delete(n.postRecs, t)
			continue
		}
		n.shareIdx[t] = idx
	}
}

// --- journaling hooks ------------------------------------------------------

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

// accepted is one accepted submission: its journal record, kept as
// encoded, and whether that record is known to be durable.
type accepted struct {
	rec     []byte
	durable bool
}

// replayed installs a replayed record under k (first wins) as durable.
func replayed[K comparable](m map[K]*accepted, k K, rec []byte) {
	if m[k] == nil {
		m[k] = &accepted{rec: rec}
	}
	m[k].durable = true
}

// settleLocked journals an accepted item's record unless it is durable
// already, and settles the ack under the node's policy: Available counts an
// append failure and acks from memory; Strict refuses the ack, leaving the
// duplicate fast path to re-attempt the append when the submitter retries.
// Called with n.mu held; releases it before appending.
func (n *Node) settleLocked(it *accepted) error {
	done := n.journal == nil || it.durable
	n.mu.Unlock()
	if done {
		return nil
	}
	if err := n.journalAppend(it.rec); err != nil {
		if n.strictJournal() {
			return fmt.Errorf("bb: submission accepted but not journaled under strict policy: %w", err)
		}
		return nil
	}
	n.mu.Lock()
	it.durable = true
	n.mu.Unlock()
	return nil
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
// StateHash. Deterministic: every map walks in sorted key order, and every
// record but a blame is the one the node kept when it accepted the item.
func (n *Node) laneState(lane, lanes int) [][]byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out [][]byte
	for _, i := range laneKeys(n.setRecs, lane, lanes) {
		out = append(out, n.setRecs[i].rec)
	}
	for _, idx := range laneKeys(n.shareRecs, lane, lanes) {
		out = append(out, n.shareRecs[idx].rec)
	}
	for _, t := range laneKeys(n.postRecs, lane, lanes) {
		out = append(out, n.postRecs[t].rec)
	}
	for _, t := range laneKeys(n.badPosts, lane, lanes) {
		out = append(out, encBBBlame(t))
	}
	if n.resultRec != nil && journal.KeyLane(0, lanes) == lane {
		out = append(out, n.resultRec)
	}
	return out
}

// StateHash digests the node's runtime state. Two nodes (or one node before
// and after a recover cycle) with identical state hash identically — the
// acceptance check for recovery idempotence, mirroring vc.Node.StateHash.
func (n *Node) StateHash() [32]byte {
	return journal.HashRecords(n.laneState(0, 1))
}

package vc

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"ddemos/internal/clock"
	"ddemos/internal/ea"
	"ddemos/internal/sig"
	"ddemos/internal/transport"
	"ddemos/internal/wire"
)

// VotedBallot is one ⟨serial-no, vote-code⟩ tuple of the agreed vote set.
// It is the wire's VSCEntry, so the set has one layout (wire.WalkVoteSet) in
// VSC-FINAL, in the journal and on the board.
type VotedBallot = wire.VSCEntry

// maxVscBuffer bounds buffering of consensus traffic that arrives before the
// engine is installed.
const maxVscBuffer = 1 << 16

// recoverRetryInterval paces RECOVER-REQUEST retransmissions.
const recoverRetryInterval = 250 * time.Millisecond

// VoteSetConsensus runs the §III-E election-end protocol: disperse certified
// vote codes (ANNOUNCE-SET names the certified serials; a node pulls the
// entries of those it lacks), run one binary consensus instance per ballot
// (batched), recover missing codes for ballots that decided "voted", and
// return the agreed vote set. All VC nodes return identical sets.
//
// The protocol is a closeState (close.go). This call installs one, feeds it
// the traffic that arrived early, and then only starts its engine and waits
// for its set; the node's pump and retry timer feed it everything else.
//
// k-out-of-m note (paper §VI future work): generalizing to k selections per
// ballot requires moving the instance space from one-per-ballot to
// one-per-(ballot, part, row) — instance = (serial-1)*2m + part*m + row —
// with input 1 iff that row's code is certified. Per-part endorsement
// stickiness already guarantees no two parts can both certify (the UCERT
// counting argument applies per part pair), so per-row decisions compose
// into consistent multi-code sets. The announce/recover layer then keys
// entries by (serial, code) — which wire.AnnounceEntry already supports —
// and the announce bitmap spans instances instead of serials.
func (n *Node) VoteSetConsensus(ctx context.Context) ([]VotedBallot, error) {
	n.vscMu.Lock()
	done := n.vscDone
	n.vscMu.Unlock()
	if done {
		return n.journaledVoteSet()
	}
	c, err := n.newClose(n.multicast, n.sendTo)
	if err != nil {
		return nil, err
	}
	c.wake = make(chan effect, 2)
	n.vscMu.Lock()
	if n.vsc != nil {
		n.vscMu.Unlock()
		return nil, errors.New("vc: vote set consensus already running")
	}
	buffered := n.vscBuffer
	n.vsc, n.vscBuffer = c, nil
	n.vscMu.Unlock()

	set, err := n.awaitClose(ctx, c, buffered)
	if err == nil {
		err = n.finishConsensus(set)
	}
	if err != nil {
		// A failed run uninstalls itself so the caller can retry — the
		// recovery path of a node restarted mid-consensus, whose first
		// attempts can starve until enough peers finish and answer with
		// VSC-FINAL.
		n.vscMu.Lock()
		if n.vsc == c {
			n.vsc = nil
		}
		n.vscMu.Unlock()
		return nil, err
	}
	return set, nil
}

// awaitClose opens an installed run, feeds it the traffic that arrived
// early, and starts its engine when it asks, until it hands out its set.
func (n *Node) awaitClose(ctx context.Context, c *closeState, early []bufferedMsg) ([]VotedBallot, error) {
	n.carryOut(c, c.Step(closeEvent{kind: evOpen}))
	for _, bm := range early {
		n.carryOut(c, c.handle(bm.from, bm.msg))
	}
	for {
		select {
		case ef := <-c.wake:
			if ef.kind == effDone {
				return ef.set, nil
			}
			effs, err := c.start(ef)
			if err != nil {
				return nil, err
			}
			n.carryOut(c, effs)
		case <-ctx.Done():
			c.Step(closeEvent{kind: evStop})
			return nil, fmt.Errorf("vc: vote set consensus: %w", ctx.Err())
		case <-n.done:
			c.Step(closeEvent{kind: evStop})
			return nil, ErrStopped
		}
	}
}

// carryOut performs the effects of one close step. Frames go out at once, on
// the calling goroutine; the retry timer is armed on the node's injected
// clock; an engine start and the finished set wake VoteSetConsensus, so the
// engine starts off the pump.
func (n *Node) carryOut(c *closeState, effs []effect) {
	for _, ef := range effs {
		switch ef.kind {
		case effSend:
			n.sendTo(ef.to, ef.frame)
		case effMulticast:
			n.multicast(ef.frame)
		case effArm:
			clock.AfterFunc(n.clk, recoverRetryInterval, func() { n.carryOut(c, c.Step(closeEvent{kind: evTick})) })
		default:
			c.wake <- ef
		}
	}
}

// journaledVoteSet is the set of a run that already completed. The agreement
// is final, and a crash after the result was acted on (signed, pushed to BB)
// must not re-derive it. A Strict node whose record never landed re-attempts
// the append first — the same fast-path duty the receipt paths carry.
func (n *Node) journaledVoteSet() ([]VotedBallot, error) {
	n.vscMu.Lock()
	set := append([]VotedBallot(nil), n.vscResult...)
	durable := n.vscDurable
	n.vscMu.Unlock()
	if n.strictJournal() && !durable {
		if err := n.journalVoteSet(set); err != nil {
			n.metrics.StrictRefusals.Add(1)
			return nil, fmt.Errorf("vc: vote set not durable: %w", err)
		}
		n.vscMu.Lock()
		n.vscDurable = true
		n.vscMu.Unlock()
	}
	return set, nil
}

// finishConsensus installs and journals the agreed vote set — shared by the
// full protocol path and VSC-FINAL adoption. The result is installed in
// memory *before* the append (the mutation-before-append rule every record
// follows): a snapshot racing the append must serialize a state that
// already contains the result, or it would capture without it and then
// delete the sealed segment holding the record. The set is the input to the signed
// BB push, so it is journaled and synced (once per election — the fsync is
// off the hot path) before the caller can act on it; a Strict node refuses
// to return a result that did not land and uninstalls it for the retry.
func (n *Node) finishConsensus(set []VotedBallot) error {
	n.vscMu.Lock()
	n.vscDone = true
	n.vscResult = append([]VotedBallot(nil), set...)
	n.vscMu.Unlock()
	err := n.journalVoteSet(set)
	if err != nil && n.strictJournal() {
		n.metrics.StrictRefusals.Add(1)
		n.vscMu.Lock()
		n.vscDone = false
		n.vscResult = nil
		n.vscMu.Unlock()
		return fmt.Errorf("vc: vote set not durable: %w", err)
	}
	n.vscMu.Lock()
	n.vscDurable = err == nil
	n.vscMu.Unlock()
	return nil
}

// journalVoteSet appends the set's record and syncs it.
func (n *Node) journalVoteSet(set []VotedBallot) error {
	err := n.journalAppend(record{kind: recVSC, set: &set}.bytes())
	if err == nil && n.journal != nil {
		if err = n.journal.Sync(); err != nil {
			n.metrics.JournalErrors.Add(1)
		}
	}
	return err
}

// ballotStates indexes the ballot states of the pool by serial-1 (nil for a
// ballot with none): the shard maps walked once, so a caller visits the
// ballots in serial order without sorting them.
func (n *Node) ballotStates() []*ballotState {
	states := make([]*ballotState, n.manifest.NumBallots)
	for i := range n.shards {
		sh := &n.shards[i]
		sh.mu.Lock()
		for serial, st := range sh.ballots {
			if serial >= 1 && serial <= uint64(len(states)) {
				states[serial-1] = st
			}
		}
		sh.mu.Unlock()
	}
	return states
}

// certifiedEntries snapshots all locally certified (serial, code, UCERT) in
// serial order: nodes holding the same certificates propose the same bytes,
// so the ACS engine's digests of their proposals match.
func (n *Node) certifiedEntries() []wire.AnnounceEntry {
	states := n.ballotStates()
	out := make([]wire.AnnounceEntry, 0, len(states))
	for i, st := range states {
		if st == nil {
			continue
		}
		st.mu.Lock()
		if st.cert != nil {
			out = append(out, wire.AnnounceEntry{Serial: uint64(i) + 1, Code: st.usedCode, Cert: *st.cert})
		}
		st.mu.Unlock()
	}
	return out
}

// certifiedBitmap is the set of ballots this node holds a certified code
// for: what its ANNOUNCE-SET names.
func (n *Node) certifiedBitmap() wire.SerialBitmap {
	b := wire.NewSerialBitmap(n.manifest.NumBallots)
	for i, st := range n.ballotStates() {
		if st == nil {
			continue
		}
		st.mu.Lock()
		if st.cert != nil {
			b.Set(uint64(i) + 1)
		}
		st.mu.Unlock()
	}
	return b
}

// certifiedCode returns the certified code of one ballot, or nil when this
// node holds no certificate for it.
func (n *Node) certifiedCode(serial uint64) []byte {
	st := n.peekState(serial)
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.cert == nil {
		return nil
	}
	return st.usedCode
}

// acceptEntries judges a batch of certified codes learned from a peer
// (RECOVER-RESPONSE, or an ACS reliable-broadcast payload) and
// installs the valid ones this node was missing. ok[i] reports whether
// entries[i] carries a well-formed uniqueness certificate for an in-range
// ballot: a pure function of the entry and the (shared) manifest, so every
// honest node judges an entry identically — the ACS engine relies on this to
// filter delivered proposals deterministically. Node-local state only decides
// how much of the checking needs Ed25519 (see verifyCerts).
func (n *Node) acceptEntries(entries []wire.AnnounceEntry) []bool {
	certs := make([]*wire.UCert, len(entries))
	for i := range entries {
		e := &entries[i]
		if e.Serial >= 1 && e.Serial <= uint64(n.manifest.NumBallots) &&
			e.Cert.Serial == e.Serial && bytes.Equal(e.Cert.Code, e.Code) {
			certs[i] = &e.Cert
		}
	}
	ok := make([]bool, len(entries))
	var recs [][]byte
	for i, verified := range n.verifyCerts(certs) {
		if verified == nil {
			continue
		}
		ok[i] = true
		st := n.state(entries[i].Serial)
		st.mu.Lock()
		if st.cert == nil { // else UCERT uniqueness: it must be the same code
			cert := *verified
			st.cert = &cert
			st.usedCode = append([]byte(nil), cert.Code...)
			if st.status == NotVoted {
				st.status = Pending
			}
			// An adopted certificate feeds our consensus input: journal it
			// so a restarted node announces the same certified set.
			recs = append(recs, record{kind: recUCert, serial: cert.Serial, cert: &cert}.bytes())
		}
		st.mu.Unlock()
	}
	if len(recs) > 0 {
		n.journalAppend(recs...)
	}
	return ok
}

// routeConsensus takes a close-phase frame from the pump: to the running
// close state, to the early-traffic buffer before one is installed, and to
// the idle answers after one completed.
func (n *Node) routeConsensus(from uint16, msg wire.Message) {
	n.vscMu.Lock()
	c, done := n.vsc, n.vscDone
	if c == nil && !done {
		if len(n.vscBuffer) < maxVscBuffer {
			n.vscBuffer = append(n.vscBuffer, bufferedMsg{from: from, msg: msg})
		}
		n.vscMu.Unlock()
		return
	}
	n.vscMu.Unlock()
	if c != nil {
		n.carryOut(c, c.handle(from, msg))
		return
	}
	// A recovered node whose consensus already completed runs no engine, but
	// peers redoing consensus (their own restart) still need answers: the
	// final set for an ANNOUNCE-SET, which then needs nothing pulled, and
	// certified codes for a RECOVER-REQUEST.
	var frame []byte
	switch m := msg.(type) {
	case *wire.AnnounceSet:
		frame = n.finalFrame()
	case *wire.RecoverRequest:
		frame = n.recoverAnswer(from, m)
	}
	if frame != nil {
		n.sendTo(from, frame)
	}
}

// finalFrame is this node's signed VSC-FINAL, or nil until consensus
// completed.
func (n *Node) finalFrame() []byte {
	n.vscMu.Lock()
	if !n.vscDone {
		n.vscMu.Unlock()
		return nil
	}
	set := append([]VotedBallot(nil), n.vscResult...)
	n.vscMu.Unlock()
	return wire.Encode(&wire.VSCFinal{Sender: n.self, Entries: set, Sig: n.SignVoteSet(set)})
}

func (n *Node) sendTo(to uint16, frame []byte) {
	if err := n.ep.Send(transport.NodeID(to), frame); err != nil {
		n.metrics.SendErrors.Add(1)
	}
}

func (n *Node) multicast(frame []byte) {
	if err := transport.Multicast(n.ep, n.peers, frame); err != nil {
		n.metrics.SendErrors.Add(1)
	}
}

// recoverBudget is how many certified entries a node serves one peer per
// recoverRetryInterval: twice the pool, room for an announce pull and a
// RECOVER-REQUEST of every ballot, so an honest peer is answered whole while
// a flood of requests from one peer is answered with at most this many.
func recoverBudget(pool int) int { return 2 * pool }

// serveMeter counts the entries recoverAnswer served each peer in the
// current recoverRetryInterval.
type serveMeter struct {
	mu    sync.Mutex
	since []time.Time // per peer: when its interval began
	used  []int       // per peer: entries served since
}

// take grants up to want entries to peer at time now, within budget per
// interval, and returns how many.
func (s *serveMeter) take(peer uint16, nv, want, budget int, now time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.used == nil {
		s.since, s.used = make([]time.Time, nv), make([]int, nv)
	}
	if now.Sub(s.since[peer]) >= recoverRetryInterval {
		s.since[peer], s.used[peer] = now, 0
	}
	k := min(want, budget-s.used[peer])
	s.used[peer] += k
	return k
}

// recoverAnswer is the RECOVER-RESPONSE to a peer that pulls certified codes
// after an announce or recovers them after agreement, or nil when it has no
// entry — shared by the running close state and the post-consensus idle path.
// An answer names each serial once, and what one peer is served is bounded by
// recoverBudget.
func (n *Node) recoverAnswer(from uint16, m *wire.RecoverRequest) []byte {
	if len(m.Serials) == 0 || int(from) >= n.nv {
		return nil
	}
	pool := n.manifest.NumBallots
	seen := wire.NewSerialBitmap(pool)
	resp := &wire.RecoverResponse{}
	for _, serial := range m.Serials {
		if serial == 0 || serial > uint64(pool) || seen.Has(serial) { //nolint:gosec // pool > 0
			continue
		}
		seen.Set(serial)
		st := n.peekState(serial)
		if st == nil {
			continue
		}
		st.mu.Lock()
		if st.cert != nil {
			resp.Entries = append(resp.Entries, wire.AnnounceEntry{
				Serial: serial, Code: st.usedCode, Cert: *st.cert,
			})
		}
		st.mu.Unlock()
	}
	resp.Entries = resp.Entries[:n.served.take(from, n.nv, len(resp.Entries), recoverBudget(pool), n.clk.Now())]
	if len(resp.Entries) == 0 {
		return nil
	}
	return wire.Encode(resp)
}

// CanonicalVoteSetHash hashes a vote set for signing and BB comparison.
func CanonicalVoteSetHash(electionID string, set []VotedBallot) [32]byte {
	h := sha256.New()
	h.Write([]byte("ddemos/v1/vote-set"))
	h.Write([]byte(electionID))
	for _, vb := range set {
		h.Write(sig.Uint64Bytes(vb.Serial))
		h.Write(sig.Uint64Bytes(uint64(len(vb.Code))))
		h.Write(vb.Code)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// SignVoteSet signs the node's final vote set for the BB push.
func (n *Node) SignVoteSet(set []VotedBallot) []byte {
	hash := CanonicalVoteSetHash(n.manifest.ElectionID, set)
	return sig.Sign(n.priv, voteSetDomain, hash[:])
}

// VerifyVoteSetSig checks a vote-set signature from VC node `index`.
func VerifyVoteSetSig(manifest *ea.Manifest, index int, set []VotedBallot, sigBytes []byte) bool {
	if index < 0 || index >= len(manifest.VCPublics) {
		return false
	}
	hash := CanonicalVoteSetHash(manifest.ElectionID, set)
	return sig.Verify(manifest.VCPublics[index], sigBytes, voteSetDomain, hash[:])
}

package vc

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/bits"
	"sort"
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
// vote codes (ANNOUNCE), run one binary consensus instance per ballot
// (batched), recover missing codes for ballots that decided "voted", and
// return the agreed vote set. All VC nodes return identical sets.
//
// k-out-of-m note (paper §VI future work): generalizing to k selections per
// ballot requires moving the instance space from one-per-ballot to
// one-per-(ballot, part, row) — instance = (serial-1)*2m + part*m + row —
// with input 1 iff that row's code is certified. Per-part endorsement
// stickiness already guarantees no two parts can both certify (the UCERT
// counting argument applies per part pair), so per-row decisions compose
// into consistent multi-code sets. The announce/recover layer then keys
// entries by (serial, code) — which wire.AnnounceEntry already supports.
func (n *Node) VoteSetConsensus(ctx context.Context) ([]VotedBallot, error) {
	// A recovered node that already completed consensus returns its
	// journaled set: the agreement is final, and a crash after the result
	// was acted on (signed, pushed to BB) must not re-derive it. A Strict
	// node whose record never landed re-attempts the append first — the
	// same fast-path duty the receipt paths carry.
	n.vscMu.Lock()
	if n.vscDone {
		set := append([]VotedBallot(nil), n.vscResult...)
		durable := n.vscDurable
		n.vscMu.Unlock()
		if n.strictJournal() && !durable {
			err := n.journalAppend(record{kind: recVSC, set: &set}.bytes())
			if err == nil {
				err = n.journal.Sync()
			}
			if err != nil {
				n.metrics.StrictRefusals.Add(1)
				return nil, fmt.Errorf("vc: vote set not durable: %w", err)
			}
			n.vscMu.Lock()
			n.vscDurable = true
			n.vscMu.Unlock()
		}
		return set, nil
	}
	n.vscMu.Unlock()
	count := uint32(n.manifest.NumBallots) //nolint:gosec // validated at setup
	e := &vscEngine{
		n:             n,
		announceFrom:  make(map[uint16]bool, n.nv),
		announceReady: make(chan struct{}),
		echoed:        make(map[uint16]bool, n.nv),
		finalSets:     make(map[[32]byte]*finalTally, 2),
		finalFrom:     make(map[uint16][32]byte, n.nv),
		finalCh:       make(chan []VotedBallot, 1),
		missing:       make(map[uint64]bool),
		missingDone:   make(chan struct{}, 1),
	}
	eng, err := n.engine(EngineConfig{
		N: n.nv, F: n.fv, Self: n.self, Ballots: count,
		Coin: n.coin,
		Send: func(frame []byte) {
			if err := transport.Multicast(n.ep, n.peers, frame); err != nil {
				n.metrics.SendErrors.Add(1)
			}
		},
		Accept: n.acceptEntries,
	})
	if err != nil {
		return nil, err
	}
	e.eng = eng

	// Install the engine and replay traffic that arrived early.
	n.vscMu.Lock()
	if n.vsc != nil {
		n.vscMu.Unlock()
		return nil, errors.New("vc: vote set consensus already running")
	}
	n.vsc = e
	buffered := n.vscBuffer
	n.vscBuffer = nil
	n.vscMu.Unlock()

	// A failed run uninstalls its engine so the caller can retry — the
	// recovery path of a node restarted mid-consensus, whose first attempts
	// can starve until enough peers finish and answer with VSC-FINAL.
	succeeded := false
	defer func() {
		if succeeded {
			return
		}
		n.vscMu.Lock()
		if n.vsc == e {
			n.vsc = nil
		}
		n.vscMu.Unlock()
	}()

	// Step 1-2: announce every certified code (batched over all ballots).
	own := n.certifiedEntries()
	if n.byz == ConsensusLiar {
		own = nil // withhold everything
	}
	e.onAnnounce(n.self, &wire.Announce{Sender: n.self, Entries: own})
	frame := wire.Encode(&wire.Announce{Sender: n.self, Entries: own})
	if err := transport.Multicast(n.ep, n.peers, frame); err != nil {
		n.metrics.SendErrors.Add(1)
	}
	for _, bm := range buffered {
		e.handle(bm.from, bm.msg)
	}

	// Wait for Nv-fv ANNOUNCE batches (per-ballot waiting in the paper; one
	// batch per node covers all ballots). A VSC-FINAL quorum short-circuits
	// every remaining stage: fv+1 matching signed sets contain an honest
	// one, so the agreement is already decided.
	select {
	case <-e.announceReady:
	case set := <-e.finalCh:
		return n.finishConsensus(set, &succeeded)
	case <-ctx.Done():
		return nil, fmt.Errorf("vc: waiting for announces: %w", ctx.Err())
	case <-n.done:
		return nil, ErrStopped
	}

	// Step 3: agreement on the vote set through the selected engine. The
	// proposal is the node's certified set (enriched by adopted announces);
	// the inputs vector marks, per ballot, whether a certified code is
	// locally known — each engine binds to the representation its protocol
	// uses. Both come from one snapshot of the ballot states, so an ANNOUNCE
	// landing meanwhile cannot make them disagree.
	proposal := n.certifiedEntries()
	inputs := make([]byte, count)
	for i := range proposal {
		inputs[proposal[i].Serial-1] = 1
	}
	if n.byz == ConsensusLiar {
		proposal = nil
		for i := range inputs {
			inputs[i] = 1 - inputs[i]
		}
	}
	if err := e.eng.Start(proposal, inputs); err != nil {
		return nil, err
	}
	// The engine wait runs under a cancellable child context so the waiter
	// goroutine always exits when VSC-FINAL adoption or shutdown wins the
	// select below — without it, a caller context with no deadline would
	// leak the goroutine (and pin the engine) forever.
	rctx, rcancel := context.WithCancel(ctx)
	defer rcancel()
	resCh := make(chan batchResult, 1)
	go func() {
		decisions, err := e.eng.Results(rctx)
		resCh <- batchResult{decisions, err}
	}()
	var decisions []byte
	select {
	case r := <-resCh:
		if r.err != nil {
			return nil, r.err
		}
		decisions = r.decisions
	case set := <-e.finalCh:
		return n.finishConsensus(set, &succeeded)
	case <-n.done:
		return nil, ErrStopped
	}

	// Steps 4-5: translate decisions; recover codes we lack.
	if err := e.recover(ctx, decisions); err != nil {
		return nil, err
	}
	set := make([]VotedBallot, 0, len(decisions))
	n.forEachCertified(func(serial uint64, code []byte) {
		if decisions[serial-1] == 1 {
			set = append(set, VotedBallot{Serial: serial, Code: code})
		}
	})
	sort.Slice(set, func(i, j int) bool { return set[i].Serial < set[j].Serial })
	// Sanity: every decided-1 ballot must now have a code.
	decidedOnes := 0
	for _, d := range decisions {
		if d == 1 {
			decidedOnes++
		}
	}
	if decidedOnes != len(set) {
		return nil, fmt.Errorf("vc: %d ballots decided voted but only %d codes known", decidedOnes, len(set))
	}
	return n.finishConsensus(set, &succeeded)
}

// batchResult carries a consensus batch outcome across the select.
type batchResult struct {
	decisions []byte
	err       error
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
func (n *Node) finishConsensus(set []VotedBallot, succeeded *bool) ([]VotedBallot, error) {
	n.vscMu.Lock()
	n.vscDone = true
	n.vscResult = append([]VotedBallot(nil), set...)
	n.vscMu.Unlock()
	err := n.journalAppend(record{kind: recVSC, set: &set}.bytes())
	if err == nil && n.journal != nil {
		if err = n.journal.Sync(); err != nil {
			n.metrics.JournalErrors.Add(1)
		}
	}
	if err != nil && n.strictJournal() {
		n.metrics.StrictRefusals.Add(1)
		n.vscMu.Lock()
		n.vscDone = false
		n.vscResult = nil
		n.vscMu.Unlock()
		return nil, fmt.Errorf("vc: vote set not durable: %w", err)
	}
	n.vscMu.Lock()
	n.vscDurable = err == nil
	n.vscMu.Unlock()
	*succeeded = true
	return set, nil
}

// certifiedEntries snapshots all locally certified (serial, code, UCERT).
func (n *Node) certifiedEntries() []wire.AnnounceEntry {
	var out []wire.AnnounceEntry
	type serialState struct {
		serial uint64
		st     *ballotState
	}
	var states []serialState
	for i := range n.shards {
		sh := &n.shards[i]
		states = states[:0]
		sh.mu.Lock()
		for serial, st := range sh.ballots {
			states = append(states, serialState{serial, st})
		}
		sh.mu.Unlock()
		for _, s := range states {
			s.st.mu.Lock()
			if s.st.cert != nil {
				out = append(out, wire.AnnounceEntry{Serial: s.serial, Code: s.st.usedCode, Cert: *s.st.cert})
			}
			s.st.mu.Unlock()
		}
	}
	return out
}

// forEachCertified calls fn for every ballot with a certified code.
func (n *Node) forEachCertified(fn func(serial uint64, code []byte)) {
	for _, e := range n.certifiedEntries() {
		fn(e.Serial, e.Code)
	}
}

// acceptEntries judges a batch of certified codes learned from a peer
// (ANNOUNCE, RECOVER-RESPONSE, or an ACS reliable-broadcast payload) and
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

// countRejected records the entries of a peer's message that failed
// acceptEntries.
func (n *Node) countRejected(ok []bool) {
	for _, v := range ok {
		if !v {
			n.metrics.BadMessages.Add(1)
		}
	}
}

// vscEngine holds the in-flight vote-set-consensus state that is common to
// every ConsensusEngine: announce bookkeeping, the VSC-FINAL adoption
// channel, and missing-code recovery. Engine-kind frames route to eng.
type vscEngine struct {
	n   *Node
	eng ConsensusEngine

	mu            sync.Mutex
	announceFrom  map[uint16]bool
	announceReady chan struct{}
	readyClosed   bool
	echoed        map[uint16]bool // peers already sent an ANNOUNCE echo

	finalMu   sync.Mutex
	finalSets map[[32]byte]*finalTally
	finalFrom map[uint16][32]byte // each sender's current vote (one per peer)
	finalSent bool
	finalCh   chan []VotedBallot

	missingMu   sync.Mutex
	missing     map[uint64]bool
	missingDone chan struct{}
}

// finalTally accumulates matching signed VSC-FINAL sets by canonical hash.
type finalTally struct {
	set     []VotedBallot
	senders uint64 // bitmask of distinct verified senders
}

func (n *Node) routeConsensus(from uint16, msg wire.Message) {
	n.vscMu.Lock()
	e := n.vsc
	done := n.vscDone
	if e == nil {
		if done {
			// A recovered node whose consensus already completed runs no
			// engine, but peers redoing consensus (their own restart) still
			// need answers: the final set for an ANNOUNCE, certified codes
			// for a RECOVER-REQUEST.
			n.vscMu.Unlock()
			n.answerConsensusIdle(from, msg)
			return
		}
		if len(n.vscBuffer) < maxVscBuffer {
			n.vscBuffer = append(n.vscBuffer, bufferedMsg{from: from, msg: msg})
		}
		n.vscMu.Unlock()
		return
	}
	n.vscMu.Unlock()
	e.handle(from, msg)
}

// answerConsensusIdle serves consensus-phase recovery traffic on a node
// that holds a journaled final result but runs no engine.
func (n *Node) answerConsensusIdle(from uint16, msg wire.Message) {
	switch m := msg.(type) {
	case *wire.Announce:
		n.countRejected(n.acceptEntries(m.Entries))
		n.sendFinalTo(from)
	case *wire.RecoverRequest:
		n.answerRecoverRequest(from, m)
	}
}

// sendFinalTo unicasts this node's signed final vote set (no-op until
// consensus completed).
func (n *Node) sendFinalTo(to uint16) {
	n.vscMu.Lock()
	if !n.vscDone {
		n.vscMu.Unlock()
		return
	}
	set := append([]VotedBallot(nil), n.vscResult...)
	n.vscMu.Unlock()
	msg := &wire.VSCFinal{Sender: n.self, Entries: set, Sig: n.SignVoteSet(set)}
	if err := n.ep.Send(transport.NodeID(to), wire.Encode(msg)); err != nil {
		n.metrics.SendErrors.Add(1)
	}
}

func (e *vscEngine) handle(from uint16, msg wire.Message) {
	switch m := msg.(type) {
	case *wire.Announce:
		e.onAnnounce(from, m)
	case *wire.Consensus, *wire.RBCEcho, *wire.RBCReady:
		e.eng.Handle(from, msg)
	case *wire.RecoverRequest:
		e.onRecoverRequest(from, m)
	case *wire.RecoverResponse:
		e.onRecoverResponse(m)
	case *wire.VSCFinal:
		e.onVSCFinal(from, m)
	}
}

func (e *vscEngine) onAnnounce(from uint16, m *wire.Announce) {
	e.n.countRejected(e.n.acceptEntries(m.Entries))
	e.mu.Lock()
	dup := e.announceFrom[from]
	echo := dup && from != e.n.self && !e.echoed[from]
	if echo {
		e.echoed[from] = true
	}
	if !dup {
		e.announceFrom[from] = true
		if len(e.announceFrom) >= e.n.hv && !e.readyClosed {
			e.readyClosed = true
			close(e.announceReady)
		}
	}
	e.mu.Unlock()
	if !dup {
		return
	}
	// A duplicate ANNOUNCE means the peer restarted mid-consensus and is
	// waiting for announces nobody will resend. Echo ours back (once per
	// peer, so network-duplicated frames cannot ping-pong), and hand it the
	// final set if we already hold one.
	if echo {
		frame := wire.Encode(&wire.Announce{Sender: e.n.self, Entries: e.n.certifiedEntries()})
		if err := e.n.ep.Send(transport.NodeID(from), frame); err != nil {
			e.n.metrics.SendErrors.Add(1)
		}
	}
	e.n.sendFinalTo(from)
}

// onVSCFinal verifies a peer's signed final vote set; fv+1 matching sets
// from distinct senders contain an honest one, so the set is the agreed
// result and the engine adopts it (the restarted-mid-consensus fast path).
func (e *vscEngine) onVSCFinal(from uint16, m *wire.VSCFinal) {
	n := e.n
	if m.Sender != from || int(from) >= n.nv {
		n.metrics.BadMessages.Add(1)
		return
	}
	set := m.Entries
	if !VerifyVoteSetSig(&n.manifest, int(from), set, m.Sig) {
		n.metrics.BadMessages.Add(1)
		return
	}
	hash := CanonicalVoteSetHash(n.manifest.ElectionID, set)
	e.finalMu.Lock()
	defer e.finalMu.Unlock()
	// The uint64 sender bitmask relies on the system-wide Nv <= 64 cap
	// (ea.Setup validates it; consensus.NewBatch refuses larger clusters
	// for the same reason).
	bit := uint64(1) << from
	// One vote per sender, latest set wins: a Byzantine peer streaming
	// distinct fabricated sets (its own key signs them all) replaces its
	// previous vote instead of growing the tally without bound — state
	// stays O(Nv) sets.
	if prev, voted := e.finalFrom[from]; voted {
		if prev == hash {
			return
		}
		if pt := e.finalSets[prev]; pt != nil {
			pt.senders &^= bit
			if pt.senders == 0 {
				delete(e.finalSets, prev)
			}
		}
	}
	e.finalFrom[from] = hash
	t := e.finalSets[hash]
	if t == nil {
		t = &finalTally{set: set}
		e.finalSets[hash] = t
	}
	t.senders |= bit
	if bits.OnesCount64(t.senders) >= n.fv+1 && !e.finalSent {
		e.finalSent = true
		e.finalCh <- append([]VotedBallot(nil), t.set...)
	}
}

func (e *vscEngine) onRecoverRequest(from uint16, m *wire.RecoverRequest) {
	e.n.answerRecoverRequest(from, m)
}

// answerRecoverRequest serves certified codes to a recovering peer — shared
// by the engine and the post-consensus idle path.
func (n *Node) answerRecoverRequest(from uint16, m *wire.RecoverRequest) {
	if len(m.Serials) == 0 {
		return
	}
	resp := &wire.RecoverResponse{}
	for _, serial := range m.Serials {
		if serial == 0 || serial > uint64(n.manifest.NumBallots) {
			continue
		}
		st := n.state(serial)
		st.mu.Lock()
		if st.cert != nil {
			resp.Entries = append(resp.Entries, wire.AnnounceEntry{
				Serial: serial, Code: st.usedCode, Cert: *st.cert,
			})
		}
		st.mu.Unlock()
	}
	if len(resp.Entries) == 0 {
		return
	}
	if err := n.ep.Send(transport.NodeID(from), wire.Encode(resp)); err != nil {
		n.metrics.SendErrors.Add(1)
	}
}

func (e *vscEngine) onRecoverResponse(m *wire.RecoverResponse) {
	ok := e.n.acceptEntries(m.Entries)
	e.n.countRejected(ok)
	for i := range m.Entries {
		if !ok[i] {
			continue
		}
		e.missingMu.Lock()
		if e.missing[m.Entries[i].Serial] {
			delete(e.missing, m.Entries[i].Serial)
			if len(e.missing) == 0 {
				select {
				case e.missingDone <- struct{}{}:
				default:
				}
			}
		}
		e.missingMu.Unlock()
	}
}

// recover implements step 5b: fetch certified codes for ballots that
// decided "voted" but whose code is locally unknown. Honest nodes that
// entered consensus with 1 possess the code (see §III-E), so responses are
// guaranteed; requests are retransmitted until satisfied.
func (e *vscEngine) recover(ctx context.Context, decisions []byte) error {
	have := make(map[uint64]bool)
	e.n.forEachCertified(func(serial uint64, _ []byte) { have[serial] = true })

	e.missingMu.Lock()
	for i, d := range decisions {
		serial := uint64(i) + 1
		if d == 1 && !have[serial] {
			e.missing[serial] = true
		}
	}
	n := len(e.missing)
	e.missingMu.Unlock()
	if n == 0 {
		return nil
	}
	for {
		e.missingMu.Lock()
		serials := make([]uint64, 0, len(e.missing))
		for s := range e.missing {
			serials = append(serials, s)
		}
		e.missingMu.Unlock()
		if len(serials) == 0 {
			return nil
		}
		e.n.metrics.Recoveries.Add(int64(len(serials)))
		frame := wire.Encode(&wire.RecoverRequest{Serials: serials})
		if err := transport.Multicast(e.n.ep, e.n.peers, frame); err != nil {
			e.n.metrics.SendErrors.Add(1)
		}
		// Pace the retransmission on the node's injected clock, so a
		// simulated election retries in virtual time instead of parking a
		// goroutine on a wall-clock timer the simulator cannot see. For
		// non-real injected clocks a longer wall-clock backstop guards
		// liveness (a manually-advanced Fake that nobody moves during
		// recovery would otherwise never retry); it is 4× the interval so
		// a live simulation's virtual retry always wins, and on the real
		// clock it is omitted — the injected timer already is the wall
		// clock.
		retry := make(chan struct{}, 1)
		tm := clock.AfterFunc(e.n.clk, recoverRetryInterval, func() {
			select {
			case retry <- struct{}{}:
			default:
			}
		})
		var backstop <-chan time.Time
		if _, isReal := e.n.clk.(clock.Real); !isReal {
			backstop = time.After(4 * recoverRetryInterval)
		}
		select {
		case <-e.missingDone:
			tm.Stop()
			e.missingMu.Lock()
			empty := len(e.missing) == 0
			e.missingMu.Unlock()
			if empty {
				return nil
			}
		case <-retry:
		case <-backstop:
			tm.Stop()
		case <-ctx.Done():
			tm.Stop()
			return fmt.Errorf("vc: recovering vote codes: %w", ctx.Err())
		case <-e.n.done:
			tm.Stop()
			return ErrStopped
		}
	}
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

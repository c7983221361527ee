package vc

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/bits"
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
		own:           n.certifiedBitmap(),
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
		SendTo: func(to uint16, frame []byte) {
			if err := n.ep.Send(transport.NodeID(to), frame); err != nil {
				n.metrics.SendErrors.Add(1)
			}
		},
		Accept: n.acceptEntries,
	})
	if err != nil {
		return nil, err
	}
	e.eng = eng

	// Step 1-2 (sent below, once the engine is installed): announce which
	// ballots this node holds a certified code for, batched over all
	// ballots. Its own announce needs nothing pulled, so it counts at once.
	announced := e.own
	if n.byz == ConsensusLiar {
		announced = nil // withhold everything
	}
	e.announceFrame = wire.Encode(&wire.AnnounceSet{Sender: n.self, Bitmap: announced})
	e.countAnnounce(n.self)

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

	if err := transport.Multicast(n.ep, n.peers, e.announceFrame); err != nil {
		n.metrics.SendErrors.Add(1)
	}
	for _, bm := range buffered {
		e.handle(bm.from, bm.msg)
	}

	// Wait for Nv-fv announces to count (per-ballot waiting in the paper;
	// one batch per node covers all ballots). A peer's counts once this node
	// holds a certificate for every serial it names, or once the peer
	// answered the pull for those it did not. A VSC-FINAL quorum
	// short-circuits every remaining stage: fv+1 matching signed sets contain
	// an honest one, so the agreement is already decided.
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
	// proposal is the node's certified set (enriched by pulled entries),
	// encoded once; the inputs vector marks, per ballot, whether a certified
	// code is locally known — each engine binds to the representation its
	// protocol uses. Both come from one snapshot of the ballot states, so a
	// certificate landing meanwhile cannot make them disagree, and the same
	// snapshot serves the codes of the agreed set below.
	held := n.certifiedEntries()
	proposal := held
	inputs := make([]byte, count)
	for i := range held {
		inputs[held[i].Serial-1] = 1
	}
	if n.byz == ConsensusLiar {
		proposal = nil
		for i := range inputs {
			inputs[i] = 1 - inputs[i]
		}
	}
	if err := e.eng.Start(wire.NewRBCEcho(n.self, n.self, proposal), inputs); err != nil {
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
	if err := e.recover(ctx, decisions, held); err != nil {
		return nil, err
	}
	set := make([]VotedBallot, 0, len(held))
	unknown := 0
	eachDecided(decisions, held, func(serial uint64, code []byte) {
		if code == nil {
			code = n.certifiedCode(serial) // recovered after the snapshot
		}
		if code == nil {
			unknown++
			return
		}
		set = append(set, VotedBallot{Serial: serial, Code: code})
	})
	// Sanity: every decided-1 ballot must now have a code.
	if unknown > 0 {
		return nil, fmt.Errorf("vc: %d ballots decided voted but %d codes unknown", len(set)+unknown, unknown)
	}
	return n.finishConsensus(set, &succeeded)
}

// eachDecided calls fn, in serial order, for every ballot decisions mark
// "voted", with its code from held (serial-ordered certified entries) or nil
// when held has none.
func eachDecided(decisions []byte, held []wire.AnnounceEntry, fn func(serial uint64, code []byte)) {
	for i, d := range decisions {
		serial := uint64(i) + 1
		for len(held) > 0 && held[0].Serial < serial {
			held = held[1:]
		}
		if d != 1 {
			continue
		}
		var code []byte
		if len(held) > 0 && held[0].Serial == serial {
			code = held[0].Code
		}
		fn(serial, code)
	}
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

	// own is the certified set when the run began; announceFrame is the
	// ANNOUNCE-SET this node sent, kept for the echo.
	own           wire.SerialBitmap
	announceFrame []byte

	mu sync.Mutex
	// announceFrom has every peer whose ANNOUNCE-SET arrived: true once it
	// counts toward the gate, false while the pull it caused is unanswered.
	announceFrom  map[uint16]bool
	counted       int
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
// that holds a journaled final result but runs no engine: the final set needs
// nothing more, so an announce is answered with it and pulls nothing.
func (n *Node) answerConsensusIdle(from uint16, msg wire.Message) {
	switch m := msg.(type) {
	case *wire.AnnounceSet:
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
	case *wire.AnnounceSet:
		e.onAnnounce(from, m)
	case *wire.Consensus, *wire.RBCDigest, *wire.RBCPull, *wire.RBCEcho, *wire.RBCReady:
		e.eng.Handle(from, msg)
	case *wire.RecoverRequest:
		e.onRecoverRequest(from, m)
	case *wire.RecoverResponse:
		e.onRecoverResponse(from, m)
	case *wire.VSCFinal:
		e.onVSCFinal(from, m)
	}
}

// onAnnounce takes a peer's ANNOUNCE-SET. The serials it names that this
// node holds no certificate for are pulled from that peer with one
// RECOVER-REQUEST, and the announce counts toward the gate once the answer
// arrives — whatever the validity of its entries, which acceptEntries judges
// and counts — or at once when nothing is missing. A bitmap past the pool is
// refused and counts nowhere.
func (e *vscEngine) onAnnounce(from uint16, m *wire.AnnounceSet) {
	n := e.n
	if m.Sender != from || !m.Bitmap.Within(n.manifest.NumBallots) {
		n.metrics.BadMessages.Add(1)
		return
	}
	missing := e.missingOf(m.Bitmap)
	e.mu.Lock()
	counted, dup := e.announceFrom[from]
	echo := dup && !e.echoed[from]
	if echo {
		e.echoed[from] = true
	}
	pull := !counted && len(missing) > 0
	if pull {
		e.announceFrom[from] = false
	} else if !counted {
		e.countAnnounce(from)
	}
	e.mu.Unlock()
	if pull {
		// Sent again for a repeated announce: the peer may have restarted
		// before it answered.
		frame := wire.Encode(&wire.RecoverRequest{Serials: missing})
		if err := n.ep.Send(transport.NodeID(from), frame); err != nil {
			n.metrics.SendErrors.Add(1)
		}
	}
	if !dup {
		return
	}
	// A duplicate ANNOUNCE means the peer restarted mid-consensus and is
	// waiting for announces nobody will resend. Echo ours back (once per
	// peer, so network-duplicated frames cannot ping-pong), and hand it the
	// final set if we already hold one.
	if echo {
		if err := n.ep.Send(transport.NodeID(from), e.announceFrame); err != nil {
			n.metrics.SendErrors.Add(1)
		}
	}
	n.sendFinalTo(from)
}

// missingOf lists the serials in b this node holds no certificate for. Only
// those outside the set it held when the run began are looked up.
func (e *vscEngine) missingOf(b wire.SerialBitmap) []uint64 {
	var missing []uint64
	for i, byt := range b {
		if i < len(e.own) {
			byt &^= e.own[i]
		}
		for ; byt != 0; byt &= byt - 1 {
			serial := uint64(i)*8 + uint64(bits.TrailingZeros8(byt)) + 1
			if e.n.certifiedCode(serial) == nil {
				missing = append(missing, serial)
			}
		}
	}
	return missing
}

// countAnnounce counts node `from`'s announce toward the Nv-fv gate, once.
// Called with e.mu held, or before the engine is installed.
func (e *vscEngine) countAnnounce(from uint16) {
	if e.announceFrom[from] {
		return
	}
	e.announceFrom[from] = true
	e.counted++
	if e.counted >= e.n.hv && !e.readyClosed {
		e.readyClosed = true
		close(e.announceReady)
	}
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

// recoverBudget is how many certified entries a node serves one peer per
// recoverRetryInterval: twice the pool, room for an announce pull and a
// RECOVER-REQUEST of every ballot, so an honest peer is answered whole while
// a flood of requests from one peer is answered with at most this many.
func recoverBudget(pool int) int { return 2 * pool }

// serveMeter counts the entries answerRecoverRequest served each peer in the
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

func (e *vscEngine) onRecoverRequest(from uint16, m *wire.RecoverRequest) {
	e.n.answerRecoverRequest(from, m)
}

// answerRecoverRequest serves certified codes to a peer that pulls them
// after an announce or recovers them after agreement — shared by the engine
// and the post-consensus idle path. An answer names each serial once, and
// what one peer is served is bounded by recoverBudget.
func (n *Node) answerRecoverRequest(from uint16, m *wire.RecoverRequest) {
	if len(m.Serials) == 0 || int(from) >= n.nv {
		return
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
		return
	}
	if err := n.ep.Send(transport.NodeID(from), wire.Encode(resp)); err != nil {
		n.metrics.SendErrors.Add(1)
	}
}

// onRecoverResponse installs the valid entries of a peer's answer, counts
// that peer's announce if it was waiting on this answer, and clears the
// serials recover waits on.
func (e *vscEngine) onRecoverResponse(from uint16, m *wire.RecoverResponse) {
	ok := e.n.acceptEntries(m.Entries)
	e.n.countRejected(ok)
	e.mu.Lock()
	if counted, announced := e.announceFrom[from]; announced && !counted {
		e.countAnnounce(from)
	}
	e.mu.Unlock()
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
// decided "voted" but whose code is locally unknown — in neither the
// snapshot held nor the ballot state. Honest nodes that entered consensus
// with 1 possess the code (see §III-E), so responses are guaranteed;
// requests are retransmitted until satisfied.
func (e *vscEngine) recover(ctx context.Context, decisions []byte, held []wire.AnnounceEntry) error {
	var lacking []uint64
	eachDecided(decisions, held, func(serial uint64, code []byte) {
		if code == nil && e.n.certifiedCode(serial) == nil {
			lacking = append(lacking, serial)
		}
	})
	if len(lacking) == 0 {
		return nil
	}
	e.missingMu.Lock()
	for _, serial := range lacking {
		e.missing[serial] = true
	}
	e.missingMu.Unlock()
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

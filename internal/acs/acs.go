// Package acs implements the BKR Agreement-on-Common-Subset vote-set
// consensus engine (Ben-Or–Kelmer–Rabin, the HoneyBadger/BEAT lineage): each
// node reliably broadcasts its candidate vote set with a Bracha-style
// broadcast, one asynchronous binary-agreement instance per broadcaster
// decides whether that broadcast is in the common subset, and the agreed
// vote set is the union of the certified entries of every proposal whose
// instance decided 1.
//
// The engine is an alternative to the paper's interlocked per-ballot
// protocol (internal/consensus): instead of one binary consensus per ballot
// seeded by ANNOUNCE-SET dispersal, it runs one reliable broadcast + one
// binary agreement per *node*. The engine-agnostic recovery layer in
// internal/vc (ANNOUNCE echo, VSC-FINAL adoption, RECOVER for missing codes,
// journaled result) is unchanged; this package only decides the set.
//
// The binary agreement is not implemented here: the engine drives a
// consensus.Batch of n instances — the same Mostéfaoui–Moumen–Raynal core,
// frames and hash coin the interlocked engine batches per ballot — through
// its late-binding inputs. What this package adds is what makes it ACS: the
// Bracha broadcast (over payload digests, with payloads pulled only by a
// node that lacks one), input 1 to an instance when its broadcaster's payload
// delivers, input 0 to the rest once n-f instances have decided 1 (the BKR
// completion rule), and the union. A threshold-signature common coin would
// plug in behind consensus.Coin for both engines at once (see DESIGN.md for
// the substitution and its trust caveat).
package acs

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"ddemos/internal/consensus"
	"ddemos/internal/wire"
)

// Config wires an Engine into the host node.
type Config struct {
	N, F    int    // cluster size and fault bound, n > 3f, n <= 64
	Self    uint16 // this node's index in [0, n)
	Ballots uint32 // ballot pool size; decisions index serial-1

	Coin consensus.Coin // shared deterministic coin

	// Send multicasts an encoded frame to the other n-1 nodes; SendTo
	// unicasts one to node `to`. Neither may call back into the engine.
	Send   func(frame []byte)
	SendTo func(to uint16, frame []byte)

	// Accept judges one delivered proposal as a batch: verdict i reports
	// whether entries[i] carries a well-formed uniqueness certificate for an
	// in-range ballot. The verdicts must be a pure function of the entries —
	// whatever node-local state the host consults may only save it work,
	// never change an answer — because every honest node filters a delivered
	// proposal identically, so the union below is identical too. It is called
	// once per distinct delivered payload — broadcasts that deliver the same
	// digest share the verdicts — and the host installs the entries it
	// accepts (into its ballot state and journal) in the same pass, so the
	// final set can be assembled locally. Optional: nil accepts every entry.
	Accept func(entries []wire.AnnounceEntry) []bool
}

// Engine is one election's ACS run. Feed inbound frames via Handle, start
// with Start, await Results. All exported methods are safe for concurrent
// use; broadcast and agreement traffic is processed from construction onward,
// so an engine installed before its Start still counts peers that raced ahead.
type Engine struct {
	n, f    int
	self    uint16
	ballots uint32
	send    func([]byte)
	sendTo  func(uint16, []byte)
	accept  func([]wire.AnnounceEntry) []bool

	// mu guards everything below and is held across every call into aba, so
	// the core's out and decision callbacks run under it too.
	mu      sync.Mutex
	started bool
	held    map[[32]byte]*wire.RBCEcho        // payloads this node holds, by digest
	valid   map[[32]byte][]wire.AnnounceEntry // a delivered payload's accepted entries, by digest
	rbc     []*rbcState
	aba     *consensus.Batch // one instance per broadcaster
	pending int              // instances still undecided
	ones    uint64           // instances decided 1, by broadcaster index
	outBox  []outFrame
	ready   chan struct{}
	closed  bool
}

// outFrame is one frame a locked call queued: for node `to`, or for every
// peer when to is multicast.
type outFrame struct {
	to    int
	frame []byte
}

const multicast = -1

// New builds an engine for n nodes tolerating f faults.
func New(cfg Config) (*Engine, error) {
	if cfg.Send == nil || cfg.SendTo == nil || cfg.Coin == nil {
		return nil, errors.New("acs: Send, SendTo and Coin are required")
	}
	e := &Engine{
		n: cfg.N, f: cfg.F, self: cfg.Self, ballots: cfg.Ballots,
		send: cfg.Send, sendTo: cfg.SendTo, accept: cfg.Accept,
		held:    make(map[[32]byte]*wire.RBCEcho, 1),
		valid:   make(map[[32]byte][]wire.AnnounceEntry, 1),
		pending: cfg.N,
		ready:   make(chan struct{}),
	}
	aba, err := consensus.NewBatch(cfg.N, cfg.F, cfg.Self, uint32(cfg.N), cfg.Coin, func(m *wire.Consensus) {
		e.queue(multicast, m)
	})
	if err != nil {
		return nil, fmt.Errorf("acs: %w", err)
	}
	aba.OnDecide(e.onDecide)
	e.aba = aba
	e.rbc = make([]*rbcState, cfg.N)
	for i := range e.rbc {
		e.rbc[i] = &rbcState{
			echoes:  make(map[[32]byte]uint64, 1),
			readies: make(map[[32]byte]uint64, 1),
		}
	}
	return e, nil
}

// Start reliably broadcasts this node's proposal: the host's payload, already
// encoded, that the engine keeps and serves to pulls as it is (its sender and
// broadcaster fields are not read). The per-ballot inputs vector of the
// interlocked engine is unused here: ACS inputs bind per broadcaster, 1 on
// payload delivery and 0 by the completion rule.
//
// Until Start the node holds no payload, so it neither echoes nor pulls:
// the broadcasts of peers that started first wait here, and every one whose
// digest equals this node's own proposal's is echoed without a pull.
func (e *Engine) Start(proposal *wire.RBCEcho, _ []byte) error {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return errors.New("acs: already started")
	}
	e.started = true
	h := proposal.Digest()
	e.held[h] = proposal
	st := e.rbc[e.self]
	st.sent, st.sendHash = true, h // advance sends the SEND as its ECHO
	e.advanceAll()
	e.unlockAndSend()
	return nil
}

// Handle processes one inbound engine frame from peer `from`. Non-engine
// messages are ignored.
func (e *Engine) Handle(from uint16, msg wire.Message) {
	if int(from) >= e.n {
		return
	}
	e.mu.Lock()
	switch m := msg.(type) {
	case *wire.RBCDigest:
		if m.Sender == from {
			e.onDigest(from, m)
		}
	case *wire.RBCPull:
		if m.Sender == from {
			e.onPull(from, m)
		}
	case *wire.RBCEcho:
		if m.Sender == from {
			e.onPayload(from, m)
		}
	case *wire.RBCReady:
		if m.Sender == from {
			e.onReady(from, m)
		}
	case *wire.Consensus:
		e.aba.Handle(from, m)
	}
	e.unlockAndSend()
}

// Results blocks until the common subset is agreed and every decided-1
// proposal has delivered, then returns the per-ballot decision vector: 1 for
// every ballot some agreed proposal certifies.
func (e *Engine) Results(ctx context.Context) ([]byte, error) {
	select {
	case <-e.ready:
	case <-ctx.Done():
		return nil, fmt.Errorf("acs: awaiting common subset: %w", ctx.Err())
	}
	decisions := make([]byte, e.ballots)
	e.mu.Lock()
	for i := range e.rbc {
		if e.ones&(1<<i) == 0 {
			continue
		}
		for j := range e.rbc[i].validated {
			// The production Validate predicate range-checks serials; guard
			// here too so a permissive one cannot index out of the pool.
			if s := e.rbc[i].validated[j].Serial; s >= 1 && s <= uint64(e.ballots) {
				decisions[s-1] = 1
			}
		}
	}
	e.mu.Unlock()
	return decisions, nil
}

// Decided returns how many agreement instances have decided so far.
func (e *Engine) Decided() int {
	return e.aba.Decided()
}

// --- reliable broadcast -----------------------------------------------------
//
// SEND, ECHO and READY carry the digest of the broadcaster's payload, never
// the payload. A node ECHOes the digest the broadcaster SENT once it holds
// a payload with that digest: its own proposal, when that hashes the same,
// or one it pulled from the broadcaster. A node that sees a READY quorum
// for a digest it does not hold pulls the payload from every node that
// ECHOed it; the first reply that hashes right is kept. DESIGN.md, "The
// ACS engine", has the totality argument.

type rbcState struct {
	sent       bool     // the broadcaster's SEND arrived
	sendHash   [32]byte // and named this digest
	echoSent   bool
	readySent  bool
	quorum     bool // 2f+1 READYs agree on quorumHash
	quorumHash [32]byte
	delivered  bool
	echoed     uint64              // peers whose ECHO counted: one each
	readied    uint64              // peers whose READY counted: one each
	echoes     map[[32]byte]uint64 // ECHO senders, by digest
	readies    map[[32]byte]uint64 // READY senders, by digest
	pulled     uint64              // peers this node pulled the payload from
	asked      map[uint16][32]byte // of those, the ones yet to reply: the digest asked for
	served     uint64              // peers whose pull this node answered
	validated  []wire.AnnounceEntry
}

func (e *Engine) onDigest(from uint16, m *wire.RBCDigest) {
	b := m.Broadcaster
	if int(b) >= e.n {
		return
	}
	st := e.rbc[b]
	if from == b {
		if st.sent {
			return // one SEND per broadcaster
		}
		st.sent, st.sendHash = true, m.Hash
	}
	e.tallyEcho(b, from, m.Hash)
	e.advance(b)
}

// tallyEcho counts a peer's ECHO of the digest h — its first for b only, as
// an honest node sends one — and READYs on n-f of them.
func (e *Engine) tallyEcho(b, from uint16, h [32]byte) {
	st := e.rbc[b]
	if st.delivered || st.echoed&(1<<from) != 0 {
		return
	}
	st.echoed |= 1 << from
	st.echoes[h] |= 1 << from
	if bits.OnesCount64(st.echoes[h]) >= e.n-e.f {
		e.sendReady(b, h)
	}
}

func (e *Engine) onReady(from uint16, m *wire.RBCReady) {
	if int(m.Broadcaster) >= e.n || len(m.Hash) != 32 {
		return
	}
	e.tallyReady(m.Broadcaster, from, [32]byte(m.Hash))
	e.advance(m.Broadcaster)
}

// tallyReady counts a peer's READY for the digest h, its first for b only.
// f+1 READYs contain an honest one: amplify (without needing the payload),
// which gives Bracha totality. 2f+1 form the quorum delivery waits on.
func (e *Engine) tallyReady(b, from uint16, h [32]byte) {
	st := e.rbc[b]
	if st.delivered || st.readied&(1<<from) != 0 {
		return
	}
	st.readied |= 1 << from
	st.readies[h] |= 1 << from
	votes := bits.OnesCount64(st.readies[h])
	if votes >= e.f+1 {
		e.sendReady(b, h)
	}
	if votes >= 2*e.f+1 && !st.quorum {
		st.quorum, st.quorumHash = true, h
	}
}

// sendReady multicasts this node's READY — at most one per broadcaster —
// and counts it locally.
func (e *Engine) sendReady(b uint16, h [32]byte) {
	st := e.rbc[b]
	if st.readySent {
		return
	}
	st.readySent = true
	e.queue(multicast, &wire.RBCReady{Sender: e.self, Broadcaster: b, Hash: h[:]})
	e.tallyReady(b, e.self, h)
}

// advance takes b's broadcast as far as what this node holds allows: ECHO
// the SENT digest, or pull its payload from the broadcaster; on a READY
// quorum, deliver, or pull the payload from every node that ECHOed it.
// Nothing happens before Start.
func (e *Engine) advance(b uint16) {
	st := e.rbc[b]
	if !e.started || st.delivered {
		return
	}
	if st.sent && !st.echoSent {
		if e.held[st.sendHash] != nil {
			st.echoSent = true // one ECHO per broadcaster
			e.queue(multicast, &wire.RBCDigest{Sender: e.self, Broadcaster: b, Hash: st.sendHash})
			e.tallyEcho(b, e.self, st.sendHash)
		} else {
			e.pull(b, b, st.sendHash)
		}
	}
	if !st.quorum || st.delivered {
		return
	}
	if p := e.held[st.quorumHash]; p != nil {
		e.deliver(b, st.quorumHash, p)
		return
	}
	for peers := st.echoes[st.quorumHash]; peers != 0; peers &= peers - 1 {
		e.pull(b, uint16(bits.TrailingZeros64(peers)), st.quorumHash) //nolint:gosec // < 64
	}
}

// advanceAll advances every broadcast: a payload just came to be held may
// be the one several of them wait on.
func (e *Engine) advanceAll() {
	for b := range e.rbc {
		e.advance(uint16(b)) //nolint:gosec // b < n <= 64
	}
}

// pull asks peer `to` for b's payload with digest h, at most once per peer
// and broadcaster.
func (e *Engine) pull(b, to uint16, h [32]byte) {
	st := e.rbc[b]
	if to == e.self || st.pulled&(1<<to) != 0 {
		return
	}
	st.pulled |= 1 << to
	if st.asked == nil {
		st.asked = make(map[uint16][32]byte, 1)
	}
	st.asked[to] = h
	e.queue(int(to), &wire.RBCPull{Sender: e.self, Broadcaster: b, Hash: h})
}

// onPull answers a peer's pull with the payload it names, once per
// (requester, broadcaster) and only while this node holds it.
func (e *Engine) onPull(from uint16, m *wire.RBCPull) {
	if int(m.Broadcaster) >= e.n || from == e.self {
		return
	}
	st := e.rbc[m.Broadcaster]
	p := e.held[m.Hash]
	if p == nil || st.served&(1<<from) != 0 {
		return
	}
	st.served |= 1 << from
	e.queue(int(from), p.Relay(e.self, m.Broadcaster))
}

// onPayload takes the reply to a pull: kept if this node asked `from` for
// b's payload and it hashes to the digest asked for, dropped otherwise.
func (e *Engine) onPayload(from uint16, m *wire.RBCEcho) {
	if int(m.Broadcaster) >= e.n {
		return
	}
	st := e.rbc[m.Broadcaster]
	h, ok := st.asked[from]
	if !ok {
		return // unsolicited, or a second reply
	}
	delete(st.asked, from)
	if e.held[h] != nil || m.Digest() != h {
		return
	}
	e.held[h] = m
	e.advanceAll()
}

// deliver completes b's broadcast with payload p, whose digest is h, and
// inputs 1 to its agreement instance.
func (e *Engine) deliver(b uint16, h [32]byte, p *wire.RBCEcho) {
	st := e.rbc[b]
	st.delivered = true
	st.validated = e.accepted(h, p)
	st.echoes, st.readies, st.asked = nil, nil, nil
	e.aba.Input(uint32(b), 1)
	e.checkOutput()
}

// accepted filters payload p, whose digest is h, down to the entries Accept
// keeps. Every honest node drops the same entries, and since a verdict is a
// function of the entry alone, the filtered list is kept per digest: in an
// honest run every broadcaster delivers the same payload, judged once.
func (e *Engine) accepted(h [32]byte, p *wire.RBCEcho) []wire.AnnounceEntry {
	if v, ok := e.valid[h]; ok {
		return v
	}
	entries := p.Entries()
	v := entries
	if e.accept != nil {
		verdicts := e.accept(entries)
		v = make([]wire.AnnounceEntry, 0, len(entries))
		for i := range entries {
			if verdicts[i] {
				v = append(v, entries[i])
			}
		}
	}
	e.valid[h] = v
	return v
}

// --- agreement and output ----------------------------------------------------

// onDecide is the agreement core's per-decision hook.
func (e *Engine) onDecide(idx uint32, v byte) {
	e.pending--
	if v == 1 {
		e.ones |= 1 << idx
		// BKR completion rule: once n-f instances carry the subset, input 0
		// to every instance still waiting on a broadcast that may never
		// arrive. The core ignores an input for an instance that has one.
		if bits.OnesCount64(e.ones) == e.n-e.f {
			for i := 0; i < e.n; i++ {
				e.aba.Input(uint32(i), 0) //nolint:gosec // i < n <= 64
			}
		}
	}
	e.checkOutput()
}

// queue encodes a frame for unlockAndSend to send to node `to`, or to every
// peer.
func (e *Engine) queue(to int, m wire.Message) {
	e.outBox = append(e.outBox, outFrame{to, wire.Encode(m)})
}

// unlockAndSend ends a locked call: it releases the engine, then sends the
// frames the call queued.
func (e *Engine) unlockAndSend() {
	frames := e.outBox
	e.outBox = nil
	e.mu.Unlock()
	for _, f := range frames {
		if f.to == multicast {
			e.send(f.frame)
		} else {
			e.sendTo(uint16(f.to), f.frame) //nolint:gosec // a node index
		}
	}
}

// checkOutput closes the ready channel once every instance has decided and
// every decided-1 broadcaster has delivered its payload (RBC totality
// guarantees delivery: a 1-decision implies an honest node input 1, which
// implies it delivered).
func (e *Engine) checkOutput() {
	if e.closed || e.pending != 0 {
		return
	}
	for i, st := range e.rbc {
		if e.ones&(1<<i) != 0 && !st.delivered {
			return
		}
	}
	e.closed = true
	close(e.ready)
}

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
// seeded by ANNOUNCE dispersal, it runs one reliable broadcast + one binary
// agreement per *node*. The engine-agnostic recovery layer in internal/vc
// (ANNOUNCE echo, VSC-FINAL adoption, RECOVER for missing codes, journaled
// result) is unchanged; this package only decides the set.
//
// The binary agreement is not implemented here: the engine drives a
// consensus.Batch of n instances — the same Mostéfaoui–Moumen–Raynal core,
// frames and hash coin the interlocked engine batches per ballot — through
// its late-binding inputs. What this package adds is what makes it ACS: the
// Bracha broadcast, input 1 to an instance when its broadcaster's payload
// delivers, input 0 to the rest once n-f instances have decided 1 (the BKR
// completion rule), and the union. A threshold-signature common coin would
// plug in behind consensus.Coin for both engines at once (see DESIGN.md for
// the substitution and its trust caveat).
package acs

import (
	"context"
	"crypto/sha256"
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

	// Send multicasts an encoded frame to the other n-1 nodes. It must not
	// call back into the engine.
	Send func(frame []byte)

	// Accept judges one delivered proposal as a batch: verdict i reports
	// whether entries[i] carries a well-formed uniqueness certificate for an
	// in-range ballot. The verdicts must be a pure function of the entries —
	// whatever node-local state the host consults may only save it work,
	// never change an answer — because every honest node filters a delivered
	// proposal identically, so the union below is identical too. It is called
	// once per delivered broadcast, and the host installs the entries it
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
	accept  func([]wire.AnnounceEntry) []bool

	// mu guards everything below and is held across every call into aba, so
	// the core's out and decision callbacks run under it too.
	mu      sync.Mutex
	started bool
	rbc     []*rbcState
	aba     *consensus.Batch // one instance per broadcaster
	pending int              // instances still undecided
	ones    uint64           // instances decided 1, by broadcaster index
	outBox  [][]byte
	ready   chan struct{}
	closed  bool
}

// New builds an engine for n nodes tolerating f faults.
func New(cfg Config) (*Engine, error) {
	if cfg.Send == nil || cfg.Coin == nil {
		return nil, errors.New("acs: Send and Coin are required")
	}
	e := &Engine{
		n: cfg.N, f: cfg.F, self: cfg.Self, ballots: cfg.Ballots,
		send: cfg.Send, accept: cfg.Accept,
		pending: cfg.N,
		ready:   make(chan struct{}),
	}
	aba, err := consensus.NewBatch(cfg.N, cfg.F, cfg.Self, uint32(cfg.N), cfg.Coin, func(m *wire.Consensus) {
		e.outBox = append(e.outBox, wire.Encode(m))
	})
	if err != nil {
		return nil, fmt.Errorf("acs: %w", err)
	}
	aba.OnDecide(e.onDecide)
	e.aba = aba
	e.rbc = make([]*rbcState, cfg.N)
	for i := range e.rbc {
		e.rbc[i] = newRBCState()
	}
	return e, nil
}

// Start reliably broadcasts this node's proposal. The per-ballot inputs
// vector of the interlocked engine is unused here: ACS inputs bind per
// broadcaster, 1 on payload delivery and 0 by the completion rule.
func (e *Engine) Start(proposal []wire.AnnounceEntry, _ []byte) error {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return errors.New("acs: already started")
	}
	e.started = true
	// The broadcaster's own ECHO doubles as the Bracha SEND step; peers
	// receiving it echo the full payload onward.
	m := wire.NewRBCEcho(e.self, e.self, proposal)
	e.sendEcho(m, payloadHash(m))
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
	case *wire.RBCEcho:
		if m.Sender == from {
			e.onEcho(from, m)
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

type rbcState struct {
	echoSent  bool
	readySent bool
	delivered bool
	echoes    map[[32]byte]*payloadTally
	readies   map[[32]byte]uint64
	validated []wire.AnnounceEntry
}

type payloadTally struct {
	senders uint64
	entries []wire.AnnounceEntry
}

func newRBCState() *rbcState {
	return &rbcState{
		echoes:  make(map[[32]byte]*payloadTally, 1),
		readies: make(map[[32]byte]uint64, 1),
	}
}

// payloadHash binds a proposal payload to its broadcaster. It hashes the
// canonical payload bytes the message already carries — the ones the strict
// decoder accepted, or the broadcaster's single encoding — so no receipt
// re-encodes the entries.
func payloadHash(m *wire.RBCEcho) [32]byte {
	h := sha256.New()
	h.Write([]byte{byte(wire.KindRBCEcho), byte(m.Broadcaster >> 8), byte(m.Broadcaster)})
	h.Write(m.Payload())
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func (e *Engine) onEcho(from uint16, m *wire.RBCEcho) {
	if int(m.Broadcaster) >= e.n || e.rbc[m.Broadcaster].delivered {
		return
	}
	e.tallyEcho(from, m, payloadHash(m))
}

// sendEcho multicasts this node's ECHO of the payload hashing to h — at most
// one per broadcaster — and counts it locally.
func (e *Engine) sendEcho(m *wire.RBCEcho, h [32]byte) {
	st := e.rbc[m.Broadcaster]
	if st.echoSent || st.delivered {
		return
	}
	st.echoSent = true
	e.outBox = append(e.outBox, wire.Encode(m))
	e.tallyEcho(e.self, m, h)
}

// tallyEcho counts one ECHO of the undelivered payload hashing to h. A
// payload is hashed once per receipt: the relay of a broadcaster's ECHO
// reuses its bytes and its hash.
func (e *Engine) tallyEcho(from uint16, m *wire.RBCEcho, h [32]byte) {
	st := e.rbc[m.Broadcaster]
	t := st.echoes[h]
	if t == nil {
		t = &payloadTally{entries: m.Entries()}
		st.echoes[h] = t
	}
	bit := uint64(1) << from
	if t.senders&bit != 0 {
		return
	}
	t.senders |= bit
	// The broadcaster's own ECHO is the SEND step: echo the payload onward.
	if from == m.Broadcaster && from != e.self {
		e.sendEcho(m.WithSender(e.self), h)
	}
	if bits.OnesCount64(t.senders) >= e.n-e.f && !st.readySent {
		st.readySent = true
		e.sendReady(m.Broadcaster, h)
	}
	// A READY quorum may have formed before the payload arrived.
	e.maybeDeliver(m.Broadcaster, st, h)
}

func (e *Engine) onReady(from uint16, m *wire.RBCReady) {
	if int(m.Broadcaster) >= e.n || len(m.Hash) != 32 {
		return
	}
	st := e.rbc[m.Broadcaster]
	if st.delivered {
		return
	}
	var h [32]byte
	copy(h[:], m.Hash)
	bit := uint64(1) << from
	if st.readies[h]&bit != 0 {
		return
	}
	st.readies[h] |= bit
	// f+1 READYs contain an honest one: amplify (without needing the
	// payload), which gives Bracha totality.
	if bits.OnesCount64(st.readies[h]) >= e.f+1 && !st.readySent {
		st.readySent = true
		e.sendReady(m.Broadcaster, h)
	}
	e.maybeDeliver(m.Broadcaster, st, h)
}

// sendReady queues this node's READY for multicast and counts it locally.
func (e *Engine) sendReady(b uint16, h [32]byte) {
	m := &wire.RBCReady{Sender: e.self, Broadcaster: b, Hash: h[:]}
	e.outBox = append(e.outBox, wire.Encode(m))
	e.onReady(e.self, m)
}

// maybeDeliver completes the broadcast once 2f+1 READYs agree on a hash
// whose payload we hold.
func (e *Engine) maybeDeliver(b uint16, st *rbcState, h [32]byte) {
	if st.delivered || bits.OnesCount64(st.readies[h]) < 2*e.f+1 {
		return
	}
	t := st.echoes[h]
	if t == nil {
		return // payload not yet seen; a later ECHO completes it
	}
	st.delivered = true
	st.validated = t.entries
	if e.accept != nil {
		// Deterministic filter: every honest node drops the same entries.
		verdicts := e.accept(t.entries)
		st.validated = make([]wire.AnnounceEntry, 0, len(t.entries))
		for i := range t.entries {
			if verdicts[i] {
				st.validated = append(st.validated, t.entries[i])
			}
		}
	}
	st.echoes, st.readies = nil, nil
	e.aba.Input(uint32(b), 1)
	e.checkOutput()
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

// unlockAndSend ends a locked call: it releases the engine, then multicasts
// the frames the call queued.
func (e *Engine) unlockAndSend() {
	frames := e.outBox
	e.outBox = nil
	e.mu.Unlock()
	for _, f := range frames {
		e.send(f)
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

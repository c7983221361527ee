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
// The binary agreement is the same Mostéfaoui–Moumen–Raynal protocol the
// interlocked engine batches, with two additions: a COIN message exchange
// per round — nodes reveal their deterministic hash-coin flip and wait for
// f+1 reveals (or a clock fallback) before completing the round, standing in
// for the share exchange of a threshold-signature common coin (see DESIGN.md
// for the substitution and its trust caveat) — and late-binding inputs: an
// instance receives input 1 when its broadcaster's payload delivers, and 0
// once n-f instances have decided 1 (the BKR completion rule).
package acs

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"ddemos/internal/clock"
	"ddemos/internal/consensus"
	"ddemos/internal/wire"
)

// coinFallback bounds how long a round waits for f+1 COIN reveals before
// completing with the locally computed flip. The deterministic hash coin
// makes the reveal exchange informational (every honest node computes the
// same value), so falling back cannot diverge honest nodes — it only drops
// the "heard from an honest coin holder" pacing a real threshold coin gives.
const coinFallback = 500 * time.Millisecond

// Config wires an Engine into the host node.
type Config struct {
	N, F    int    // cluster size and fault bound, n > 3f, n <= 64
	Self    uint16 // this node's index in [0, n)
	Ballots uint32 // ballot pool size; decisions index serial-1

	Coin  consensus.Coin // shared deterministic coin
	Clock clock.Clock    // timer domain for the coin fallback

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
// use; reliable-broadcast traffic is processed from construction onward, so
// an engine installed before its Start still counts peers that raced ahead.
type Engine struct {
	n, f    int
	self    uint16
	ballots uint32
	coin    consensus.Coin
	clk     clock.Clock
	send    func([]byte)
	accept  func([]wire.AnnounceEntry) []bool

	mu       sync.Mutex
	started  bool
	rbc      []*rbcState
	inst     []*abaInstance
	pending  int
	ones     int // instances decided 1
	filled   bool
	flushBuf map[groupKey][]uint32
	outBox   [][]byte
	ready    chan struct{}
	closed   bool
}

type groupKey struct {
	step  uint8
	round uint16
	value uint8
}

// New builds an engine for n nodes tolerating f faults.
func New(cfg Config) (*Engine, error) {
	if cfg.N <= 3*cfg.F {
		return nil, fmt.Errorf("acs: n=%d does not tolerate f=%d (need n > 3f)", cfg.N, cfg.F)
	}
	if int(cfg.Self) >= cfg.N {
		return nil, fmt.Errorf("acs: self=%d out of range", cfg.Self)
	}
	if cfg.N > 64 {
		return nil, errors.New("acs: at most 64 nodes supported (bitmask sender sets)")
	}
	if cfg.Send == nil || cfg.Coin == nil {
		return nil, errors.New("acs: Send and Coin are required")
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	e := &Engine{
		n: cfg.N, f: cfg.F, self: cfg.Self, ballots: cfg.Ballots,
		coin: cfg.Coin, clk: clk, send: cfg.Send,
		accept:   cfg.Accept,
		rbc:      make([]*rbcState, cfg.N),
		inst:     make([]*abaInstance, cfg.N),
		pending:  cfg.N,
		flushBuf: make(map[groupKey][]uint32),
		ready:    make(chan struct{}),
	}
	for i := range e.rbc {
		e.rbc[i] = newRBCState()
		e.inst[i] = newABAInstance()
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
	frames := e.drainLocked()
	e.mu.Unlock()
	e.emit(frames)
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
	case *wire.ABA:
		if m.Sender == from {
			e.onABA(from, m)
		}
	}
	frames := e.drainLocked()
	e.mu.Unlock()
	e.emit(frames)
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
	for i, inst := range e.inst {
		if inst.value != 1 {
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
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n - e.pending
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
	if popcount(t.senders) >= e.n-e.f && !st.readySent {
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
	if popcount(st.readies[h]) >= e.f+1 && !st.readySent {
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
	if st.delivered || popcount(st.readies[h]) < 2*e.f+1 {
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
	e.provideInput(uint32(b), 1)
	e.checkOutput()
}

// --- plumbing ---------------------------------------------------------------

// sendABA queues one per-instance agreement message for the next flush and
// self-delivers it.
func (e *Engine) sendABA(idx uint32, step uint8, round uint16, value byte) {
	k := groupKey{step: step, round: round, value: value}
	e.flushBuf[k] = append(e.flushBuf[k], idx)
	e.deliverABA(e.self, idx, step, round, value)
}

// drainLocked flushes batched agreement traffic and the outbox into the
// frame list to emit after the lock is released.
func (e *Engine) drainLocked() [][]byte {
	if len(e.flushBuf) != 0 {
		msg := &wire.ABA{Sender: e.self, Groups: make([]wire.ABAGroup, 0, len(e.flushBuf))}
		for k, idxs := range e.flushBuf {
			msg.Groups = append(msg.Groups, wire.ABAGroup{
				Step: k.step, Round: k.round, Value: k.value, Instances: idxs,
			})
		}
		e.flushBuf = make(map[groupKey][]uint32)
		e.outBox = append(e.outBox, wire.Encode(msg))
	}
	out := e.outBox
	e.outBox = nil
	return out
}

func (e *Engine) emit(frames [][]byte) {
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
	for i, inst := range e.inst {
		if inst.value == 1 && !e.rbc[i].delivered {
			return
		}
	}
	e.closed = true
	close(e.ready)
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

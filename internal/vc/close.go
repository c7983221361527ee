package vc

import (
	"math/bits"
	"slices"
	"sync"

	"ddemos/internal/wire"
)

// closeState is one node's run of the close phase: the engine-agnostic layer
// around a ConsensusEngine that counts ANNOUNCE-SETs toward the Nv-fv gate,
// echoes a restarted peer's announce, adopts fv+1 matching VSC-FINALs and
// pulls the codes of ballots that decided "voted" without one (step 5b).
//
// It is a step machine. Every input is an event fed to Step under the state's
// one lock, and every output is an effect Step returns for the caller to carry
// out once the lock is released; nothing here blocks, sleeps, arms a timer or
// starts a goroutine. The engine is fed by handle, outside the lock, so a
// delivered ACS payload is judged as in parallel as the engine allows, and its
// decisions come back into Step as an event. VoteSetConsensus feeds a
// closeState from the node's pump, its retry timer and its own goroutine; the
// schedule explorer (explore_test.go) feeds Nv of them from one goroutine, in
// the order a schedule picks.
type closeState struct {
	n   *Node
	eng ConsensusEngine
	// own is the certified set when the run began; announceFrame is the
	// ANNOUNCE-SET this node sent, kept for the echo.
	own           wire.SerialBitmap
	announceFrame []byte
	// wake hands an engine start and the finished set to VoteSetConsensus:
	// one of each at most, so it never fills.
	wake chan effect

	mu        sync.Mutex
	out       []effect // the effects of the step in progress
	phase     closePhase
	announced uint64               // peers whose ANNOUNCE-SET arrived, by index
	counted   uint64               // of those, the ones counted toward the gate
	echoed    uint64               // peers already sent the announce echo
	held      []wire.AnnounceEntry // the snapshot the engine started from
	decisions []byte
	missing   []uint64   // step 5b: decided-1 serials without a code, in serial order
	finals    [][32]byte // the canonical hash of each peer's latest VSC-FINAL
}

// closePhase is how far a run has come.
type closePhase uint8

const (
	announcing closePhase = iota // the gate is shut
	agreeing                     // the engine start is out; decisions are awaited
	recovering                   // decided; pulling the codes this node lacks
	closed                       // the set is out, or the run stopped
)

// closeEvent is one input to Step.
type closeEvent struct {
	kind      eventKind
	from      uint16
	msg       wire.Message // evFrame
	decisions []byte       // evDecided
}

type eventKind uint8

const (
	evOpen    eventKind = iota // the run begins: announce, count our own
	evFrame                    // a close-layer frame from peer `from`
	evDecided                  // the engine decided every ballot
	evTick                     // the retry timer fired
	evStop                     // the caller gave up: no effect follows
)

// effect is one output of Step.
type effect struct {
	kind    effectKind
	to      uint16               // effSend
	frame   []byte               // effSend, effMulticast
	entries []wire.AnnounceEntry // effStart: the proposal
	inputs  []byte               // effStart
	set     []VotedBallot        // effDone
}

type effectKind uint8

const (
	effSend      effectKind = iota // a frame to node `to`
	effMulticast                   // a frame to every peer
	effStart                       // start the engine on (entries, inputs)
	effArm                         // feed evTick after recoverRetryInterval
	effDone                        // the agreed set
)

// newClose builds a run and its engine; send and sendTo carry the engine's
// frames.
func (n *Node) newClose(send func([]byte), sendTo func(uint16, []byte)) (*closeState, error) {
	eng, err := n.engine(EngineConfig{
		N: n.nv, F: n.fv, Self: n.self, Ballots: uint32(n.manifest.NumBallots), //nolint:gosec // validated at setup
		Coin: n.coin, Send: send, SendTo: sendTo, Accept: n.acceptEntries,
	})
	if err != nil {
		return nil, err
	}
	c := &closeState{n: n, eng: eng, own: n.certifiedBitmap(), finals: make([][32]byte, n.nv)}
	announced := c.own
	if n.byz == ConsensusLiar {
		announced = nil // withhold everything
	}
	c.announceFrame = wire.Encode(&wire.AnnounceSet{Sender: n.self, Bitmap: announced})
	return c, nil
}

// Step takes one event and returns the effects it causes, in order.
func (c *closeState) Step(ev closeEvent) []effect {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.kind {
	case evOpen:
		// Steps 1-2: announce which ballots this node holds a certified code
		// for, one bitmap over the pool. Its own announce needs nothing
		// pulled, so it counts at once.
		c.multicast(c.announceFrame)
		c.count(c.n.self)
	case evFrame:
		c.onFrame(ev.from, ev.msg)
	case evDecided:
		if c.decisions == nil {
			c.decisions = ev.decisions
			c.decide()
		}
	case evTick:
		if c.phase == recovering {
			c.pull(true)
		}
	case evStop:
		c.phase = closed
	}
	out := c.out
	c.out = nil
	return out
}

// handle feeds one frame: an engine kind to the engine, with its decisions
// read back into Step, anything else to Step.
func (c *closeState) handle(from uint16, msg wire.Message) []effect {
	switch msg.(type) {
	case *wire.Consensus, *wire.RBCDigest, *wire.RBCPull, *wire.RBCEcho, *wire.RBCReady:
		c.eng.Handle(from, msg)
		return c.poll()
	}
	return c.Step(closeEvent{kind: evFrame, from: from, msg: msg})
}

// start carries out an effStart: the proposal is encoded once, as this
// node's own broadcast.
func (c *closeState) start(ef effect) ([]effect, error) {
	if err := c.eng.Start(wire.NewRBCEcho(c.n.self, c.n.self, ef.entries), ef.inputs); err != nil {
		return nil, err
	}
	return c.poll(), nil
}

// poll hands the engine's decisions to Step once it has them.
func (c *closeState) poll() []effect {
	if d := c.eng.Decisions(); d != nil {
		return c.Step(closeEvent{kind: evDecided, decisions: d})
	}
	return nil
}

func (c *closeState) send(to uint16, frame []byte) {
	c.out = append(c.out, effect{kind: effSend, to: to, frame: frame})
}

func (c *closeState) multicast(frame []byte) {
	c.out = append(c.out, effect{kind: effMulticast, frame: frame})
}

func (c *closeState) finish(set []VotedBallot) {
	c.phase = closed
	c.out = append(c.out, effect{kind: effDone, set: set})
}

func (c *closeState) onFrame(from uint16, msg wire.Message) {
	switch m := msg.(type) {
	case *wire.AnnounceSet:
		c.onAnnounce(from, m)
	case *wire.RecoverRequest:
		if frame := c.n.recoverAnswer(from, m); frame != nil {
			c.send(from, frame)
		}
	case *wire.RecoverResponse:
		// Whatever the validity of its entries, which acceptEntries judges
		// and counts, the answer counts the peer's announce if it waited on it.
		for _, ok := range c.n.acceptEntries(m.Entries) {
			if !ok {
				c.n.metrics.BadMessages.Add(1)
			}
		}
		if c.announced&(1<<from) != 0 {
			c.count(from)
		}
		if c.phase == recovering {
			c.pull(false)
		}
	case *wire.VSCFinal:
		c.onVSCFinal(from, m)
	}
}

// onAnnounce takes a peer's ANNOUNCE-SET. The serials it names that this
// node holds no certificate for are pulled from that peer with one
// RECOVER-REQUEST, and the announce counts toward the gate once the answer
// arrives, or at once when nothing is missing. A bitmap past the pool is
// refused and counts nowhere.
func (c *closeState) onAnnounce(from uint16, m *wire.AnnounceSet) {
	n := c.n
	if m.Sender != from || !m.Bitmap.Within(n.manifest.NumBallots) {
		n.metrics.BadMessages.Add(1)
		return
	}
	bit := uint64(1) << from
	dup := c.announced&bit != 0
	c.announced |= bit
	if c.counted&bit == 0 {
		if missing := c.missingOf(m.Bitmap); len(missing) > 0 {
			// Sent again for a repeated announce: the peer may have
			// restarted before it answered.
			c.send(from, wire.Encode(&wire.RecoverRequest{Serials: missing}))
		} else {
			c.count(from)
		}
	}
	if !dup {
		return
	}
	// A duplicate ANNOUNCE means the peer restarted mid-consensus and is
	// waiting for announces nobody will resend. Echo ours back (once per
	// peer, so network-duplicated frames cannot ping-pong), and hand it the
	// final set if we already hold one.
	if c.echoed&bit == 0 {
		c.echoed |= bit
		c.send(from, c.announceFrame)
	}
	if frame := n.finalFrame(); frame != nil {
		c.send(from, frame)
	}
}

// missingOf lists the serials in b this node holds no certificate for. Only
// those outside the set it held when the run began are looked up.
func (c *closeState) missingOf(b wire.SerialBitmap) []uint64 {
	var missing []uint64
	for i, byt := range b {
		if i < len(c.own) {
			byt &^= c.own[i]
		}
		for ; byt != 0; byt &= byt - 1 {
			serial := uint64(i)*8 + uint64(bits.TrailingZeros8(byt)) + 1
			if c.n.certifiedCode(serial) == nil {
				missing = append(missing, serial)
			}
		}
	}
	return missing
}

// count counts node `from`'s announce toward the Nv-fv gate (per-ballot
// waiting in the paper; one bitmap per node covers all ballots).
func (c *closeState) count(from uint16) {
	c.counted |= 1 << from
	if c.phase == announcing && bits.OnesCount64(c.counted) >= c.n.hv {
		c.openGate()
	}
}

// openGate takes step 3's snapshot and asks for the engine start. The
// proposal is the node's certified set (enriched by pulled entries); the
// inputs vector marks, per ballot, whether a certified code is locally known
// — each engine binds to the representation its protocol uses. Both come
// from one snapshot of the ballot states, so a certificate landing meanwhile
// cannot make them disagree, and the same snapshot serves the codes of the
// agreed set.
func (c *closeState) openGate() {
	n := c.n
	c.phase = agreeing
	c.held = n.certifiedEntries()
	proposal := c.held
	inputs := make([]byte, n.manifest.NumBallots)
	for i := range c.held {
		inputs[c.held[i].Serial-1] = 1
	}
	if n.byz == ConsensusLiar {
		proposal = nil
		for i := range inputs {
			inputs[i] ^= 1
		}
	}
	c.out = append(c.out, effect{kind: effStart, entries: proposal, inputs: inputs})
	c.decide() // the engine may have decided already, adopting peers' DECIDEs
}

// decide enters steps 4-5 once the gate is open and the engine decided:
// ballots decided "voted" whose code is in neither the snapshot nor the
// ballot state are pulled from every peer (step 5b). Honest nodes that
// entered consensus with 1 hold the code (§III-E), so answers come; the
// request is resent on every retry tick until none is missing.
func (c *closeState) decide() {
	if c.phase != agreeing || c.decisions == nil {
		return
	}
	c.phase = recovering
	eachDecided(c.decisions, c.held, func(serial uint64, code []byte) {
		if code == nil {
			c.missing = append(c.missing, serial)
		}
	})
	c.pull(true)
}

// pull drops the serials step 5b no longer lacks and finishes once none is
// left; with resend, it asks every peer for the rest and arms the retry.
func (c *closeState) pull(resend bool) {
	n := c.n
	c.missing = slices.DeleteFunc(c.missing, func(s uint64) bool { return n.certifiedCode(s) != nil })
	if len(c.missing) == 0 {
		set := make([]VotedBallot, 0, len(c.held))
		eachDecided(c.decisions, c.held, func(serial uint64, code []byte) {
			if code == nil {
				code = n.certifiedCode(serial) // pulled after the snapshot
			}
			set = append(set, VotedBallot{Serial: serial, Code: code})
		})
		c.finish(set)
		return
	}
	if resend {
		n.metrics.Recoveries.Add(int64(len(c.missing)))
		c.multicast(wire.Encode(&wire.RecoverRequest{Serials: c.missing}))
		c.out = append(c.out, effect{kind: effArm})
	}
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

// onVSCFinal verifies a peer's signed final vote set; fv+1 matching sets
// from distinct senders contain an honest one, so the set is the agreed
// result and the run adopts it at whatever stage it is (the
// restarted-mid-consensus fast path).
func (c *closeState) onVSCFinal(from uint16, m *wire.VSCFinal) {
	n := c.n
	if c.phase == closed {
		return
	}
	if m.Sender != from || int(from) >= n.nv || !VerifyVoteSetSig(&n.manifest, int(from), m.Entries, m.Sig) {
		n.metrics.BadMessages.Add(1)
		return
	}
	// One vote per sender, latest set wins: a Byzantine peer streaming
	// distinct fabricated sets (its own key signs them all) replaces its
	// previous vote, so the tally stays one set per peer.
	hash := CanonicalVoteSetHash(n.manifest.ElectionID, m.Entries)
	c.finals[from] = hash
	votes := 0
	for _, h := range c.finals {
		if h == hash {
			votes++
		}
	}
	if votes >= n.fv+1 {
		c.finish(append([]VotedBallot(nil), m.Entries...))
	}
}

package consensus

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"ddemos/internal/wire"
)

// Batch runs many binary-consensus instances concurrently, aggregating all
// outgoing per-instance messages into batched wire.Consensus frames — the
// paper's "binary consensus operating in batches of arbitrary size" (§V).
//
// Usage: create with NewBatch, feed inbound messages via Handle, give every
// instance its input — all at once with Start, or one by one with Input as
// the inputs become known — and await Results. Traffic is processed from
// construction onward: an instance without input relays, tallies (bounded by
// maxRoundAhead) and adopts f+1 DECIDEs, so peers that raced ahead are never
// dropped. The out callback is invoked (serially per flush) with batched
// messages to broadcast to all peers; the caller owns delivery.
type Batch struct {
	n, f     int
	self     uint16
	count    uint32
	coin     Coin
	out      func(*wire.Consensus)
	onDecide func(idx uint32, v byte)

	mu          sync.Mutex
	started     bool
	inst        []*abaInstance
	pending     int
	results     []byte
	done        chan struct{}
	flushBuf    map[groupKey][]uint32
	justDecided []uint32 // decisions of the call in progress, owed to onDecide
}

type groupKey struct {
	step  uint8
	round uint16
	value uint8
}

// NewBatch creates a driver for `count` instances among n nodes tolerating f
// Byzantine faults. self is this node's index in [0, n). The out callback
// receives batched messages to broadcast to the other n-1 nodes; it must not
// call back into the Batch.
func NewBatch(n, f int, self uint16, count uint32, coin Coin, out func(*wire.Consensus)) (*Batch, error) {
	if n <= 3*f {
		return nil, fmt.Errorf("consensus: n=%d does not tolerate f=%d (need n > 3f)", n, f)
	}
	if int(self) >= n {
		return nil, fmt.Errorf("consensus: self=%d out of range", self)
	}
	if n > 64 {
		return nil, errors.New("consensus: at most 64 nodes supported (bitmask sender sets)")
	}
	b := &Batch{
		n: n, f: f, self: self, count: count,
		coin:     coin,
		out:      out,
		inst:     make([]*abaInstance, count),
		pending:  int(count),
		results:  make([]byte, count),
		done:     make(chan struct{}),
		flushBuf: make(map[groupKey][]uint32),
	}
	for i := range b.inst {
		b.inst[i] = newABAInstance()
	}
	if count == 0 {
		close(b.done)
	}
	return b, nil
}

// OnDecide installs a hook called once per instance with its decision, after
// the call that produced the decision has released the Batch and broadcast
// its messages — so the hook may call Input. Install it before the first
// Input or Handle.
func (b *Batch) OnDecide(fn func(idx uint32, v byte)) { b.onDecide = fn }

// Start gives all instances their inputs (one 0/1 byte per instance).
func (b *Batch) Start(inputs []byte) error {
	if uint32(len(inputs)) != b.count {
		return fmt.Errorf("consensus: %d inputs for %d instances", len(inputs), b.count)
	}
	for i, v := range inputs {
		if v > 1 {
			return fmt.Errorf("consensus: input %d is not binary", i)
		}
	}
	b.mu.Lock()
	if b.started {
		b.mu.Unlock()
		return errors.New("consensus: already started")
	}
	b.started = true
	for i, v := range inputs {
		b.input(uint32(i), v) //nolint:gosec // i < count
	}
	b.finish()
	return nil
}

// Input gives instance idx its input v. An instance takes one input: a
// second one, or one for an instance that already decided, is ignored, as is
// an index or value out of range.
func (b *Batch) Input(idx uint32, v byte) {
	if idx >= b.count || v > 1 {
		return
	}
	b.mu.Lock()
	b.input(idx, v)
	b.finish()
}

// Handle processes a batched consensus message from peer `from`.
func (b *Batch) Handle(from uint16, msg *wire.Consensus) {
	if int(from) >= b.n || msg.Sender != from {
		return
	}
	b.mu.Lock()
	for gi := range msg.Groups {
		g := &msg.Groups[gi]
		if g.Value > 1 {
			continue
		}
		for _, idx := range g.Instances {
			if idx >= b.count {
				continue
			}
			b.deliver(from, idx, g.Step, g.Round, g.Value)
		}
	}
	b.finish()
}

// Results blocks until every instance has decided, returning the decision
// vector.
func (b *Batch) Results(ctx context.Context) ([]byte, error) {
	select {
	case <-b.done:
		out := make([]byte, len(b.results))
		copy(out, b.results)
		return out, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("consensus: awaiting decisions: %w", ctx.Err())
	}
}

// Decided returns how many instances have decided so far.
func (b *Batch) Decided() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int(b.count) - b.pending
}

// --- internal -------------------------------------------------------------

// finish ends a locked call: it releases the Batch, broadcasts what the call
// queued as one grouped message, then reports the call's decisions.
func (b *Batch) finish() {
	var msg *wire.Consensus
	if len(b.flushBuf) != 0 {
		msg = &wire.Consensus{Sender: b.self, Groups: make([]wire.ConsensusGroup, 0, len(b.flushBuf))}
		for k, idxs := range b.flushBuf {
			msg.Groups = append(msg.Groups, wire.ConsensusGroup{
				Step: k.step, Round: k.round, Value: k.value, Instances: idxs,
			})
		}
		b.flushBuf = make(map[groupKey][]uint32)
	}
	decided := b.justDecided
	b.justDecided = nil
	b.mu.Unlock()
	if msg != nil {
		b.out(msg)
	}
	for _, idx := range decided {
		b.onDecide(idx, b.results[idx]) // written once, before the unlock above
	}
}

// queue an outgoing per-instance protocol message for the next flush.
func (b *Batch) send(idx uint32, step uint8, round uint16, value byte) {
	k := groupKey{step: step, round: round, value: value}
	b.flushBuf[k] = append(b.flushBuf[k], idx)
	// Self-delivery: a node is one of the n parties and must process its own
	// broadcasts.
	b.deliver(b.self, idx, step, round, value)
}

func (b *Batch) deliver(from uint16, idx uint32, step uint8, round uint16, value byte) {
	inst := b.inst[idx]
	if inst.halted {
		return
	}
	switch step {
	case wire.StepBVal:
		b.onBVal(from, idx, inst, round, value)
	case wire.StepAux:
		b.onAux(from, idx, inst, round, value)
	case wire.StepDecide:
		b.onDecideMsg(from, idx, inst, value)
	}
}

func (b *Batch) input(idx uint32, v byte) {
	inst := b.inst[idx]
	if inst.round != 0 || inst.decided {
		return
	}
	inst.est = v
	b.startRound(idx, inst, 1)
}

func (b *Batch) startRound(idx uint32, inst *abaInstance, round uint16) {
	inst.round = round
	r := inst.getRound(round)
	if !r.bvalSent[inst.est] {
		r.bvalSent[inst.est] = true
		b.send(idx, wire.StepBVal, round, inst.est)
	}
	// Messages for this round may have arrived while the instance had no
	// input or was in an earlier round; thresholds could already hold.
	b.progressRound(idx, inst, round)
}

func (b *Batch) onBVal(from uint16, idx uint32, inst *abaInstance, round uint16, v byte) {
	if round == 0 || round > inst.round+maxRoundAhead {
		return
	}
	r := inst.getRound(round)
	bit := uint64(1) << from
	if r.bvalRecv[v]&bit != 0 {
		return
	}
	r.bvalRecv[v] |= bit
	cnt := bits.OnesCount64(r.bvalRecv[v])
	// Relay after f+1 distinct BVALs (so honest values propagate), add to
	// bin_values after 2f+1.
	if cnt >= b.f+1 && !r.bvalSent[v] {
		r.bvalSent[v] = true
		b.send(idx, wire.StepBVal, round, v)
	}
	if cnt >= 2*b.f+1 && !r.binValues[v] {
		r.binValues[v] = true
		b.progressRound(idx, inst, round)
	}
}

func (b *Batch) onAux(from uint16, idx uint32, inst *abaInstance, round uint16, v byte) {
	if round == 0 || round > inst.round+maxRoundAhead {
		return
	}
	r := inst.getRound(round)
	bit := uint64(1) << from
	if r.auxFrom&bit != 0 {
		return // one AUX per sender per round
	}
	r.auxFrom |= bit
	r.auxRecv[v] |= bit
	b.progressRound(idx, inst, round)
}

// progressRound checks whether the current round of an instance can advance:
// bin_values non-empty triggers the AUX broadcast; n-f AUXes with values
// covered by bin_values complete the round. An instance without input sits
// at round 0, which no message names, so it never advances from here.
func (b *Batch) progressRound(idx uint32, inst *abaInstance, round uint16) {
	if inst.halted || round != inst.round {
		return
	}
	r := inst.getRound(round)
	if !r.auxSent {
		w := byte(255)
		switch {
		case r.binValues[inst.est]:
			w = inst.est // prefer own estimate when certified
		case r.binValues[0]:
			w = 0
		case r.binValues[1]:
			w = 1
		}
		if w == 255 {
			return
		}
		r.auxSent = true
		b.send(idx, wire.StepAux, round, w)
		// Self-delivery may have cascaded the instance past this round; do
		// not complete it a second time from this stale frame.
		if inst.halted || round != inst.round {
			return
		}
	}
	// Count AUX messages whose value is in bin_values.
	var covered uint64
	vals := [2]bool{}
	for v := byte(0); v <= 1; v++ {
		if r.binValues[v] && r.auxRecv[v] != 0 {
			covered |= r.auxRecv[v]
			vals[v] = true
		}
	}
	if bits.OnesCount64(covered) < b.n-b.f {
		return
	}
	// Round completes.
	c := b.coin.Flip(idx, round)
	switch {
	case vals[0] != vals[1]: // single value v
		var v byte
		if vals[1] {
			v = 1
		}
		inst.est = v
		if v == c {
			b.decide(idx, inst, v)
		}
	default: // both values seen
		inst.est = c
	}
	if inst.halted {
		return
	}
	// Free completed-round state for decided-in-round-1 instances to bound
	// memory across hundreds of thousands of instances.
	delete(inst.rounds, round-1)
	b.startRound(idx, inst, round+1)
}

func (b *Batch) decide(idx uint32, inst *abaInstance, v byte) {
	if inst.decided {
		return
	}
	inst.decided = true
	b.results[idx] = v
	b.pending--
	if b.onDecide != nil {
		b.justDecided = append(b.justDecided, idx)
	}
	b.send(idx, wire.StepDecide, 0, v)
	if b.pending == 0 {
		close(b.done)
	}
}

func (b *Batch) onDecideMsg(from uint16, idx uint32, inst *abaInstance, v byte) {
	bit := uint64(1) << from
	if inst.decideFrom&bit != 0 {
		return
	}
	inst.decideFrom |= bit
	inst.decideRecv[v] |= bit
	cnt := bits.OnesCount64(inst.decideRecv[v])
	// f+1 DECIDEs contain one from an honest decider: safe to adopt.
	if cnt >= b.f+1 {
		b.decide(idx, inst, v)
	}
	// 2f+1 DECIDEs mean every honest node will eventually decide without our
	// help: halt the instance.
	if cnt >= 2*b.f+1 {
		inst.halted = true
		inst.rounds = nil
	}
}

// maxRoundAhead bounds how far ahead of our current round we accept
// messages, limiting memory a Byzantine flooder can consume.
const maxRoundAhead = 8

// abaInstance is one binary-agreement instance. Round 0 is unused: an
// instance sits there until its input arrives.
type abaInstance struct {
	round      uint16
	est        byte
	decided    bool
	halted     bool
	decideFrom uint64
	decideRecv [2]uint64
	rounds     map[uint16]*roundState
}

type roundState struct {
	bvalRecv  [2]uint64 // sender bitmasks per value
	bvalSent  [2]bool
	binValues [2]bool
	auxFrom   uint64
	auxRecv   [2]uint64
	auxSent   bool
}

func newABAInstance() *abaInstance {
	return &abaInstance{rounds: make(map[uint16]*roundState, 2)}
}

func (i *abaInstance) getRound(r uint16) *roundState {
	if i.rounds == nil {
		i.rounds = make(map[uint16]*roundState, 2)
	}
	rs, ok := i.rounds[r]
	if !ok {
		rs = &roundState{}
		i.rounds[r] = rs
	}
	return rs
}

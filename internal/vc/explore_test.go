package vc

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ddemos/internal/clock"
	"ddemos/internal/ea"
	"ddemos/internal/transport"
	"ddemos/internal/wire"
)

// The close-phase schedule explorer. Four close states over un-started nodes
// run with their real engines in one goroutine, and a schedule picks every
// step: which frame is delivered next, which is dropped, when a node opens
// its run, when its engine starts and when its retry timer fires. Schedules
// are PCT-style (Burckhardt et al., ASPLOS 2010): every pending step gets a
// random priority, the highest runs, and at d change points the step about
// to run is pushed below all others instead, so a bug that needs d ordering
// constraints is hit with a known probability per schedule. One Byzantine
// seat plays a move from a fixed menu. After every step and at the end the
// world checks:
//
//   - agreement: every honest node returns the same set;
//   - validity: that set holds only certified entries, and every ballot all
//     honest nodes held;
//   - termination: with nothing left to deliver, every honest node finished;
//   - the serve bound: no node serves one peer more than recoverBudget
//     entries in a recoverRetryInterval window;
//   - no announce is counted before its answer: a peer the node pulled from
//     counts only once that peer's RECOVER-RESPONSE arrived, or once the node
//     holds what it pulled;
//   - well-formed pulls: an honest RECOVER-REQUEST names in-pool serials, in
//     increasing order;
//   - honest echoes: an honest node SENDs or ECHOes only the digest of a
//     payload it proposed, or pulled from a peer it asked and got back.
//
// A failing schedule prints its seed and depth; DDEMOS_CLOSE_SEED=<seed>
// replays it alone, at the depth the seed derives.

const (
	exploreNodes   = 4
	exploreBallots = 3
	// exploreSteps bounds one schedule; honest runs take a few hundred.
	exploreSteps = 20000
	// exploreHorizon is the span of steps the change points fall in.
	exploreHorizon = 300
	// exploreDrops bounds the frames one schedule may lose.
	exploreDrops = 2
)

// byzMove is the Byzantine seat's move.
type byzMove int

const (
	byzSilent      byzMove = iota // sends nothing
	byzGarbage                    // announces every serial, twice, and answers pulls with bad signatures
	byzLongBitmap                 // announces a bitmap longer than the pool, every bit set
	byzLiar                       // ConsensusLiar: withholds its announce, inverts its inputs
	byzPhantom                    // SENDs and ECHOes the digest of a payload it holds nowhere
	byzUnsolicited                // pushes a payload nobody asked for, then SENDs its digest
	byzFlood                      // pulls every serial, twice over, from every peer, again and again
	byzMoves
)

var byzMoveNames = [...]string{"silent", "garbage", "long-bitmap", "liar", "phantom-digest", "unsolicited-payload", "pull-flood"}

// stepKind is what a pending step does.
type stepKind uint8

const (
	stepOpen    stepKind = iota // node `to` calls VoteSetConsensus
	stepDeliver                 // frame from `from` reaches `to`
	stepStart                   // node `to` starts its engine on ef
	stepTick                    // node `to`'s retry timer fires
)

type pendingStep struct {
	kind      stepKind
	from, to  int
	frame     []byte
	ef        effect
	prio      float64
	droppable bool
}

// scheduleOutcome is what one schedule reports besides a failure.
type scheduleOutcome struct {
	steps     int
	maxRound  uint16 // the latest ABA round an honest node decided an instance in
	reached5b bool   // an honest node pulled a decided ballot's code (step 5b)
	retried   bool   // and a retry tick re-sent it
	drops     int
}

// world is one explorer: four nodes over one election, reset per schedule.
type world struct {
	data    *ea.ElectionData
	nodes   []*Node
	entries []wire.AnnounceEntry // entries[s-1]: ballot s's certified code
	garbage []wire.AnnounceEntry // the same, one signature short of a certificate

	// Per schedule.
	rng      *rand.Rand
	engine   string
	byz      int
	move     byzMove
	runs     []*closeState
	opened   []bool
	early    [][]pendingStep // deliveries that reached a node before it opened
	queue    []pendingStep
	changeAt map[int]int // step -> change-point index
	holds    [][]bool    // [node][serial-1]: certified at the start
	sets     [][]VotedBallot
	done     []bool
	out      scheduleOutcome
	err      error
	// Observations for the checks.
	pulled  [][][]uint64 // [i][p]: what i pulled from p, while p has not answered
	since   [][]time.Time
	served  [][]int
	holding []map[[32]byte]bool   // digests an honest node may echo
	asked   [][]map[[32]byte]bool // [i][p]: digests i pulled from p
	pulls5b []int                 // step 5b pulls an honest node sent
	// Per honest node and agreement instance: the last round it sent a
	// BVAL or AUX for, and whether it has sent its DECIDE.
	round   [][]uint16
	decided [][]bool
	filter  func(w *world, s *pendingStep) (deliver, drop bool)
}

// newWorld builds the election and its certificates once; schedules reuse
// them, so the per-schedule cost is the protocol and the certificate checks
// of entries a node lacks.
func newWorld(tb testing.TB) *world {
	tb.Helper()
	start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	data, err := ea.Setup(ea.Params{
		ElectionID: "vc-explore", Options: []string{"yes", "no"},
		NumBallots: exploreBallots, NumVC: exploreNodes, NumBB: 1, NumTrustees: 1,
		VotingStart: start, VotingEnd: start.Add(2 * time.Hour), VCOnly: true,
		Seed: []byte("vc-explore-seed"),
	})
	if err != nil {
		tb.Fatal(err)
	}
	net := transport.NewMemnet(transport.LinkProfile{})
	tb.Cleanup(func() { _ = net.Close() })
	w := &world{data: data}
	for i := 0; i < exploreNodes; i++ {
		n, err := New(Config{
			Init:     data.VC[i],
			Endpoint: net.Endpoint(transport.NodeID(i)), //nolint:gosec // small
			Clock:    clock.NewFake(start.Add(3 * time.Hour)),
		})
		if err != nil {
			tb.Fatal(err)
		}
		w.nodes = append(w.nodes, n)
	}
	for s := uint64(1); s <= exploreBallots; s++ {
		code, err := data.Ballots[s-1].CodeFor(0, int(s%2))
		if err != nil {
			tb.Fatal(err)
		}
		e := signedEntry(data, s, code, 0, 1, 2)
		w.entries = append(w.entries, e)
		// Refused without a signature check: a flipped signature byte is
		// TestAnnounceGateWaitsForPullAnswer's, and checking it per schedule
		// would be most of the explorer's time.
		bad := cloneEntry(e)
		bad.Cert.Sigs = bad.Cert.Sigs[:2]
		w.garbage = append(w.garbage, bad)
	}
	return w
}

// schedule runs one random schedule and returns its outcome, or the first
// property it broke.
func (w *world) schedule(seed uint64, depth int) (scheduleOutcome, error) {
	w.rng = rand.New(rand.NewPCG(seed, 0xC105E)) //nolint:gosec // a schedule, not a secret
	byz := w.rng.IntN(exploreNodes)
	move := byzMove(w.rng.IntN(int(byzMoves)))
	// Who holds each ballot's certificate: nobody, a lone honest node with
	// the Byzantine seat (the step 5b case), everybody, or everybody but one
	// lagging node. A certificate a node pulls is checked, which is most of
	// a schedule's cost.
	holds := grid[bool](exploreNodes)
	for s := 0; s < exploreBallots; s++ {
		switch w.rng.IntN(4) {
		case 0:
		case 1:
			lone := (byz + 1 + w.rng.IntN(exploreNodes-1)) % exploreNodes
			holds[lone][s], holds[byz][s] = true, true
		default:
			lagging := w.rng.IntN(2 * exploreNodes) // half the time, nobody lags
			for i := range holds {
				holds[i][s] = i != lagging
			}
		}
	}
	w.prepare([...]string{"interlocked", "acs"}[seed%2], byz, move, depth, holds)
	return w.play()
}

// prepare resets the world for one schedule: the engine, the Byzantine
// seat's move, the certificates each node holds (holds[node][serial-1]) and
// depth change points drawn from w.rng.
func (w *world) prepare(engine string, byz int, move byzMove, depth int, holds [][]bool) {
	w.engine, w.byz, w.move, w.holds = engine, byz, move, holds
	w.out, w.err, w.queue = scheduleOutcome{}, nil, w.queue[:0]
	w.changeAt = make(map[int]int, depth)
	for k := 0; k < depth; k++ {
		w.changeAt[w.rng.IntN(exploreHorizon)] = k + 1
	}
	nn := len(w.nodes)
	w.runs, w.opened, w.early = make([]*closeState, nn), make([]bool, nn), make([][]pendingStep, nn)
	w.sets, w.done, w.pulls5b = make([][]VotedBallot, nn), make([]bool, nn), make([]int, nn)
	w.pulled, w.since, w.served = grid[[]uint64](nn), grid[time.Time](nn), grid[int](nn)
	w.holding, w.asked = make([]map[[32]byte]bool, nn), make([][]map[[32]byte]bool, nn)
	instances := max(exploreBallots, exploreNodes) // per ballot, or per broadcaster
	w.round, w.decided = make([][]uint16, nn), make([][]bool, nn)
	for i, n := range w.nodes {
		w.round[i], w.decided[i] = make([]uint16, instances), make([]bool, instances)
		for j := range n.shards {
			clear(n.shards[j].ballots)
		}
		n.vsc, n.vscBuffer, n.vscDone, n.vscResult = nil, nil, false, nil
		n.served.since, n.served.used = nil, nil
		n.byz = Honest
		if i == byz && move == byzLiar {
			n.byz = ConsensusLiar
		}
		n.engine = InterlockedEngine
		if engine == "acs" {
			n.engine = ACSEngine
		}
		for s, held := range holds[i] {
			if held {
				installCert(n, w.entries[s])
			}
		}
		w.holding[i] = make(map[[32]byte]bool, 2)
		w.asked[i] = make([]map[[32]byte]bool, nn)
		for p := range w.asked[i] {
			w.asked[i][p] = make(map[[32]byte]bool, 1)
		}
	}
}

// play runs the prepared schedule to its end and checks it.
func (w *world) play() (scheduleOutcome, error) {
	for i := range w.nodes {
		w.push(pendingStep{kind: stepOpen, to: i})
	}
	if w.move == byzFlood {
		flood := append(span(1, exploreBallots), span(1, exploreBallots)...)
		for k := 0; k < 4; k++ {
			w.emit(w.byz, -1, wire.Encode(&wire.RecoverRequest{Serials: flood}))
		}
	}
	for w.err == nil && len(w.queue) > 0 {
		if w.out.steps++; w.out.steps > exploreSteps {
			w.fail("no end after %d steps", exploreSteps)
			break
		}
		w.run(w.pick())
	}
	if w.err == nil {
		w.checkEnd()
	}
	return w.out, w.err
}

// grid is an n×n table.
func grid[T any](n int) [][]T {
	g := make([][]T, n)
	for i := range g {
		g[i] = make([]T, n)
	}
	return g
}

// installCert gives a node a certificate without checking it: the fixture's
// entries are valid, and checking them per schedule would be most of the
// cost.
func installCert(n *Node, e wire.AnnounceEntry) {
	st := n.state(e.Serial)
	cert := e.Cert
	st.cert, st.usedCode, st.status = &cert, e.Code, Pending
}

// push queues a step at a random priority.
func (w *world) push(s pendingStep) {
	s.prio = w.rng.Float64()
	w.queue = append(w.queue, s)
}

// pick removes and returns the step to run: the highest priority, unless
// this step is a change point, which demotes that step below every other and
// picks again.
func (w *world) pick() pendingStep {
	best := func() int {
		b := 0
		for i := range w.queue {
			if w.queue[i].prio > w.queue[b].prio {
				b = i
			}
		}
		return b
	}
	i := best()
	if k, ok := w.changeAt[w.out.steps]; ok && len(w.queue) > 1 {
		w.queue[i].prio = -float64(k)
		i = best()
	}
	s := w.queue[i]
	w.queue[i] = w.queue[len(w.queue)-1]
	w.queue = w.queue[:len(w.queue)-1]
	return s
}

func (w *world) honest(i int) bool { return i != w.byz }

// run carries out one step.
func (w *world) run(s pendingStep) {
	c := w.runs[s.to]
	switch s.kind {
	case stepOpen:
		i := s.to
		var err error
		if c, err = w.nodes[i].newClose(func(f []byte) { w.emit(i, -1, f) }, func(to uint16, f []byte) { w.emit(i, int(to), f) }); err != nil {
			w.fail("node %d: %v", s.to, err)
			return
		}
		w.runs[s.to], w.opened[s.to] = c, true
		w.carryOut(s.to, c.Step(closeEvent{kind: evOpen}))
		if s.to == w.byz {
			w.byzOpened()
		}
		for _, d := range w.early[s.to] {
			w.run(d)
		}
	case stepDeliver:
		if !w.opened[s.to] {
			w.early[s.to] = append(w.early[s.to], s)
			return
		}
		if s.droppable && w.filter == nil && w.out.drops < exploreDrops && w.rng.IntN(2) == 0 {
			w.out.drops++
			return
		}
		if w.filter != nil {
			if deliver, drop := w.filter(w, &s); drop {
				return
			} else if !deliver {
				w.queue = append(w.queue, s)
				return
			}
		}
		msg, err := wire.Decode(s.frame)
		if err != nil {
			w.fail("node %d sent a malformed frame: %v", s.from, err)
			return
		}
		w.observeDelivery(s.from, s.to, msg)
		w.carryOut(s.to, c.handle(uint16(s.from), msg)) //nolint:gosec // small
	case stepStart:
		if s.to != w.byz {
			w.holding[s.to][wire.NewRBCEcho(0, 0, s.ef.entries).Digest()] = true
		}
		effs, err := c.start(s.ef)
		if err != nil {
			w.fail("node %d: engine start: %v", s.to, err)
			return
		}
		w.carryOut(s.to, effs)
	case stepTick:
		for _, n := range w.nodes {
			n.clk.(*clock.Fake).Advance(recoverRetryInterval)
		}
		w.carryOut(s.to, c.Step(closeEvent{kind: evTick}))
	}
	if w.honest(s.to) && w.opened[s.to] {
		w.checkGate(s.to)
	}
}

// carryOut is the explorer's VoteSetConsensus and timer: frames into the
// pool, an engine start and a tick as steps of their own, the set recorded.
func (w *world) carryOut(i int, effs []effect) {
	for _, ef := range effs {
		switch ef.kind {
		case effSend:
			w.emit(i, int(ef.to), ef.frame)
		case effMulticast:
			w.emit(i, -1, ef.frame)
		case effStart:
			w.push(pendingStep{kind: stepStart, to: i, ef: ef})
		case effArm:
			if w.honest(i) { // the Byzantine seat's timer is its own business
				w.push(pendingStep{kind: stepTick, to: i})
			}
		case effDone:
			if w.done[i] {
				w.fail("node %d finished twice", i)
			}
			w.sets[i], w.done[i] = ef.set, true
		}
	}
}

// emit sends a frame from node i to node `to`, or to every peer when to is
// -1: an honest node's frames are checked, the Byzantine seat's rewritten by
// its move.
func (w *world) emit(i, to int, frame []byte) {
	if w.err != nil {
		return
	}
	if !w.honest(i) {
		for _, f := range w.byzRewrite(frame) {
			w.fanOut(i, to, f, false)
		}
		return
	}
	msg, err := wire.Decode(frame)
	if err != nil {
		w.fail("node %d encoded a frame it cannot decode: %v", i, err)
		return
	}
	droppable := w.observeSend(i, to, msg)
	w.fanOut(i, to, frame, droppable)
}

func (w *world) fanOut(i, to int, frame []byte, droppable bool) {
	for p := range w.nodes {
		if p != i && (to == -1 || to == p) {
			w.push(pendingStep{kind: stepDeliver, from: i, to: p, frame: frame, droppable: droppable})
		}
	}
}

// observeSend checks one frame an honest node sends and reports whether the
// protocol survives its loss: only step 5b's pulls, which are retried.
func (w *world) observeSend(i, to int, msg wire.Message) (droppable bool) {
	switch m := msg.(type) {
	case *wire.RecoverRequest:
		for k, s := range m.Serials {
			if s < 1 || s > exploreBallots || (k > 0 && s <= m.Serials[k-1]) {
				w.fail("node %d pulls serials %v: not increasing within the pool", i, m.Serials)
			}
		}
		if to == -1 {
			w.pulls5b[i]++
			w.out.reached5b = true
			w.out.retried = w.out.retried || w.pulls5b[i] > 1
			return true
		}
		w.pulled[i][to] = m.Serials
	case *wire.RecoverResponse:
		now := w.nodes[i].clk.Now()
		if now.Sub(w.since[i][to]) >= recoverRetryInterval {
			w.since[i][to], w.served[i][to] = now, 0
		}
		if w.served[i][to] += len(m.Entries); w.served[i][to] > recoverBudget(exploreBallots) {
			w.fail("node %d served node %d %d entries in one interval, budget %d",
				i, to, w.served[i][to], recoverBudget(exploreBallots))
		}
		return w.opened[to] && w.runs[to].phaseIs(recovering)
	case *wire.RBCDigest:
		if !w.holding[i][m.Hash] {
			w.fail("node %d sent broadcaster %d's digest %x without holding its payload", i, m.Broadcaster, m.Hash[:4])
		}
	case *wire.RBCPull:
		w.asked[i][to][m.Hash] = true
	case *wire.Consensus:
		w.observeRounds(i, m)
	}
	return false
}

// observeRounds notes the round each instance decided in at honest node i.
// An instance runs on past its decision until 2f+1 DECIDEs arrive, and the
// flush that carries its DECIDE may open the next round; so the decision
// round is the last BVAL or AUX round sent before the DECIDE, or in its
// flush, not counting a BVAL that opens a round beyond its AUXes.
func (w *world) observeRounds(i int, m *wire.Consensus) {
	type flush struct {
		decide    bool
		bval, aux uint16
	}
	var seen [max(exploreBallots, exploreNodes)]flush
	for _, g := range m.Groups {
		for _, idx := range g.Instances {
			f := &seen[idx]
			switch g.Step {
			case wire.StepDecide:
				f.decide = true
			case wire.StepBVal:
				f.bval = max(f.bval, g.Round)
			case wire.StepAux:
				f.aux = max(f.aux, g.Round)
			}
		}
	}
	for idx, f := range seen {
		if w.decided[i][idx] {
			continue
		}
		r := max(w.round[i][idx], f.aux)
		if !f.decide || f.bval <= f.aux {
			r = max(r, f.bval)
		}
		w.round[i][idx] = r
		if f.decide {
			w.decided[i][idx] = true
			w.out.maxRound = max(w.out.maxRound, r)
		}
	}
}

// observeDelivery notes what a delivery tells an honest receiver.
func (w *world) observeDelivery(from, to int, msg wire.Message) {
	if !w.honest(to) {
		return
	}
	switch m := msg.(type) {
	case *wire.RecoverResponse:
		w.pulled[to][from] = nil
	case *wire.RBCEcho:
		if h := m.Digest(); w.asked[to][from][h] {
			w.holding[to][h] = true
		}
	}
}

// checkGate: a peer node i pulled from and has not heard back from counts
// toward its gate only once i holds what it pulled some other way.
func (w *world) checkGate(i int) {
	c := w.runs[i]
	c.mu.Lock()
	counted := c.counted
	c.mu.Unlock()
	for p, serials := range w.pulled[i] {
		if counted&(1<<p) == 0 {
			continue
		}
		for _, s := range serials {
			if w.nodes[i].certifiedCode(s) == nil {
				w.fail("node %d counted node %d's announce before its pull of ballot %d was answered", i, p, s)
				return
			}
		}
	}
}

// checkEnd: termination, agreement and validity.
func (w *world) checkEnd() {
	var ref []VotedBallot
	refAt := -1
	for i := range w.nodes {
		if !w.honest(i) {
			continue
		}
		if !w.done[i] {
			w.fail("node %d did not finish with nothing left to deliver", i)
			return
		}
		for _, vb := range w.sets[i] {
			if vb.Serial < 1 || vb.Serial > exploreBallots || !bytes.Equal(vb.Code, w.entries[vb.Serial-1].Code) {
				w.fail("node %d agreed on ballot %d with a code nobody certified", i, vb.Serial)
				return
			}
		}
		if refAt < 0 {
			ref, refAt = w.sets[i], i
			continue
		}
		if CanonicalVoteSetHash(w.data.Manifest.ElectionID, w.sets[i]) != CanonicalVoteSetHash(w.data.Manifest.ElectionID, ref) {
			w.fail("node %d agreed on %v, node %d on %v", i, serialsOf(w.sets[i]), refAt, serialsOf(ref))
			return
		}
	}
	in := make(map[uint64]bool, len(ref))
	for _, vb := range ref {
		in[vb.Serial] = true
	}
	for s := 0; s < exploreBallots; s++ {
		all := true
		for i := range w.nodes {
			all = all && (!w.honest(i) || w.holds[i][s])
		}
		if all && !in[uint64(s)+1] {
			w.fail("every honest node held ballot %d, the agreed set %v lacks it", s+1, serialsOf(ref))
		}
	}
}

func serialsOf(set []VotedBallot) []uint64 {
	out := make([]uint64, len(set))
	for i := range set {
		out[i] = set[i].Serial
	}
	return out
}

func (w *world) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("%s engine, Byzantine seat %d playing %s: %s",
			w.engine, w.byz, byzMoveNames[w.move], fmt.Sprintf(format, args...))
	}
}

// decided reports whether the engine's decisions reached the run.
func (c *closeState) decided() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decisions != nil
}

// msg decodes a pending delivery.
func (s *pendingStep) msg() wire.Message {
	m, _ := wire.Decode(s.frame)
	return m
}

// phaseIs reports the run's phase, for the explorer's drop rule.
func (c *closeState) phaseIs(p closePhase) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.phase == p
}

// phantom is a digest no node holds a payload for.
var phantom = sha256.Sum256([]byte("phantom"))

// byzOpened plays the moves that act once, when the seat opens its run.
func (w *world) byzOpened() {
	if w.move != byzUnsolicited {
		return
	}
	p := wire.NewRBCEcho(uint16(w.byz), uint16(w.byz), w.entries) //nolint:gosec // small
	for i := range w.nodes {
		if w.honest(i) {
			w.fanOut(w.byz, i, wire.Encode(p), false)
		}
	}
	w.fanOut(w.byz, -1, wire.Encode(&wire.RBCDigest{Sender: uint16(w.byz), Broadcaster: uint16(w.byz), Hash: p.Digest()}), false) //nolint:gosec // small
}

// byzRewrite turns a frame the Byzantine seat's own run sends into what its
// move sends instead.
func (w *world) byzRewrite(frame []byte) [][]byte {
	msg, err := wire.Decode(frame)
	if err != nil {
		return nil
	}
	self := uint16(w.byz) //nolint:gosec // small
	switch w.move {
	case byzSilent:
		return nil
	case byzGarbage:
		switch m := msg.(type) {
		case *wire.AnnounceSet:
			all := wire.Encode(&wire.AnnounceSet{Sender: self, Bitmap: serialsBitmap(exploreBallots, span(1, exploreBallots)...)})
			return [][]byte{all, all}
		case *wire.RecoverResponse:
			var bad []wire.AnnounceEntry
			for _, e := range m.Entries {
				bad = append(bad, w.garbage[e.Serial-1])
			}
			if len(bad) == 0 {
				bad = w.garbage
			}
			return [][]byte{wire.Encode(&wire.RecoverResponse{Entries: bad})}
		}
	case byzLongBitmap:
		if _, ok := msg.(*wire.AnnounceSet); ok {
			long := bytes.Repeat([]byte{0xFF}, (exploreBallots+7)/8+1)
			return [][]byte{wire.Encode(&wire.AnnounceSet{Sender: self, Bitmap: long})}
		}
	case byzPhantom:
		if m, ok := msg.(*wire.RBCDigest); ok {
			return [][]byte{wire.Encode(&wire.RBCDigest{Sender: self, Broadcaster: m.Broadcaster, Hash: phantom})}
		}
	case byzUnsolicited:
		if m, ok := msg.(*wire.RBCDigest); ok && m.Broadcaster == self {
			return nil // byzOpened sent the SEND of the pushed payload
		}
	}
	return [][]byte{frame}
}

// exploreSeedBase offsets tier-1's seeds from the fuzz corpus's.
const exploreSeedBase = 1 << 20

// closeReplay reads DDEMOS_CLOSE_SEED; the depth is derived as tier-1 derives it.
func closeReplay(t *testing.T) (seed uint64, depth int, ok bool) {
	s := os.Getenv("DDEMOS_CLOSE_SEED")
	if s == "" {
		return 0, 0, false
	}
	seed, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("DDEMOS_CLOSE_SEED=%q: %v", s, err)
	}
	return seed, 1 + int(seed%3), true
}

// TestCloseScheduleExplorer runs 10 000 PCT schedules of depth 1-3 (1 000
// with -short) over both engines and every Byzantine move, one world per CPU.
func TestCloseScheduleExplorer(t *testing.T) {
	if seed, depth, ok := closeReplay(t); ok {
		out, err := newWorld(t).schedule(seed, depth)
		if err != nil {
			t.Fatalf("seed %d depth %d: %v", seed, depth, err)
		}
		t.Logf("seed %d depth %d: %+v", seed, depth, out)
		return
	}
	schedules := 10000
	if testing.Short() {
		schedules = 1000
	}
	workers := min(runtime.GOMAXPROCS(0), 4)
	var (
		next, reached, retried, drops atomic.Int64
		maxRound                      atomic.Int32
		mu                            sync.Mutex
		firstErr                      error
		wg                            sync.WaitGroup
	)
	began := time.Now()
	for k := 0; k < workers; k++ {
		w := newWorld(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(schedules) {
					return
				}
				seed := exploreSeedBase + uint64(i)
				depth := 1 + int(seed%3)
				out, err := w.schedule(seed, depth)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("seed %d depth %d: %w\nreplay: DDEMOS_CLOSE_SEED=%d go test ./internal/vc -run TestCloseScheduleExplorer -v",
							seed, depth, err, seed)
					}
					mu.Unlock()
					next.Store(int64(schedules))
					return
				}
				if out.reached5b {
					reached.Add(1)
				}
				if out.retried {
					retried.Add(1)
				}
				drops.Add(int64(out.drops))
				for r := int32(out.maxRound); ; {
					cur := maxRound.Load()
					if r <= cur || maxRound.CompareAndSwap(cur, r) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	t.Logf("%d schedules in %v on %d workers: %.1f%% reached step 5b, %.1f%% re-sent its pull on a retry tick, %d frames dropped, latest ABA decision round %d",
		schedules, time.Since(began).Round(time.Millisecond), workers,
		100*float64(reached.Load())/float64(schedules), 100*float64(retried.Load())/float64(schedules),
		drops.Load(), maxRound.Load())
	if reached.Load() == 0 {
		t.Fatal("no schedule reached step 5b")
	}
}

// FuzzCloseSchedule explores one schedule per input: its seed and its depth,
// up to 8 change points.
func FuzzCloseSchedule(f *testing.F) {
	f.Add(uint64(1), uint8(1))
	f.Add(uint64(2), uint8(3))
	f.Add(uint64(3), uint8(7))
	w := newWorld(f)
	var mu sync.Mutex
	f.Fuzz(func(t *testing.T, seed uint64, depth uint8) {
		mu.Lock()
		defer mu.Unlock()
		d := 1 + int(depth%8)
		if _, err := w.schedule(seed, d); err != nil {
			t.Fatalf("seed %d depth %d: %v", seed, d, err)
		}
	})
}

// TestRecoverRetryTick covers step 5b's retry, which only a lost answer
// needs. Four nodes run the interlocked engine. Node 3 alone holds ballot
// 1's certificate, and the Byzantine seat 2, a ConsensusLiar holding
// nothing, inputs 1 for it. Node 3's frames to node 0 are lost until node 0
// decides, so node 0 decides without node 3's announce; on a schedule where
// it decides 1, it lacks the code and pulls it from every peer. Every answer
// node 0 gets before that pull is re-sent is dropped: only the retry tick,
// on the node's injected clock, can finish the run.
func TestRecoverRetryTick(t *testing.T) {
	w := newWorld(t)
	holds := grid[bool](exploreNodes)
	holds[3][0] = true
	w.filter = func(w *world, s *pendingStep) (deliver, drop bool) {
		if s.to != 0 {
			return true, false
		}
		if s.from == 3 && (w.runs[0] == nil || !w.runs[0].decided()) {
			return false, true
		}
		if _, answer := s.msg().(*wire.RecoverResponse); answer && w.pulls5b[0] < 2 {
			return false, true
		}
		return true, false
	}
	for seed := uint64(1); seed <= 200; seed++ {
		w.rng = rand.New(rand.NewPCG(seed, 0xC105E)) //nolint:gosec // a schedule, not a secret
		w.prepare("interlocked", 2, byzLiar, 1, holds)
		if _, err := w.play(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if w.pulls5b[0] == 0 {
			continue // node 0 decided 0 on ballot 1
		}
		if w.pulls5b[0] < 2 || len(w.sets[0]) != 1 || !bytes.Equal(w.sets[0][0].Code, w.entries[0].Code) {
			t.Fatalf("seed %d: node 0 sent %d pulls and agreed on %v", seed, w.pulls5b[0], serialsOf(w.sets[0]))
		}
		t.Logf("seed %d: node 0 decided ballot 1 without its code and finished on its retry", seed)
		return
	}
	t.Fatal("no schedule made node 0 decide ballot 1 without its code")
}

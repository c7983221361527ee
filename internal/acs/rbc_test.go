package acs

import (
	"bytes"
	"context"
	"testing"
	"time"

	"ddemos/internal/consensus"
	"ddemos/internal/wire"
)

// The reliable-broadcast tests run three honest engines (seats 0-2) against a
// scripted Byzantine broadcaster in seat 3. The host predicate is synthetic —
// an entry is bad when its code starts with 'x' — because what is under test
// is the broadcast: who delivers what, how often the host is asked, and what
// goes on the wire. internal/vc repeats the Byzantine cases with real
// certificates and hosts in mixed memo states.

const rbcByz = 3

// toAll marks a multicast in the per-engine send log.
const toAll = -1

type rbcCluster struct {
	t       *testing.T
	engines []*Engine
	queue   []replayDelivery
	sent    [][]sentFrame            // per engine: every frame it sent
	asked   [][][]wire.AnnounceEntry // per engine: every payload its host judged
	// answer plays the Byzantine seat's side of a pull from honest engine
	// `from`: the reply it sends, or nil for none. Nil answers nothing.
	answer func(from uint16, m *wire.RBCPull) wire.Message
	pulls  []replayDelivery // every pull sent to the Byzantine seat
}

type sentFrame struct {
	to    int // toAll for a multicast
	frame []byte
}

func entryValid(e *wire.AnnounceEntry) bool { return len(e.Code) == 0 || e.Code[0] != 'x' }

func newRBCCluster(t *testing.T, ballots uint32) *rbcCluster {
	t.Helper()
	c := &rbcCluster{t: t, sent: make([][]sentFrame, rbcByz), asked: make([][][]wire.AnnounceEntry, rbcByz)}
	for i := 0; i < rbcByz; i++ {
		self := uint16(i)
		e, err := New(Config{
			N: 4, F: 1, Self: self, Ballots: ballots,
			Coin: consensus.NewHashCoin([]byte("rbc-test")),
			Send: func(frame []byte) {
				c.sent[self] = append(c.sent[self], sentFrame{toAll, frame})
				for to := uint16(0); to <= rbcByz; to++ {
					if to != self {
						c.queue = append(c.queue, replayDelivery{from: self, to: to, frame: frame})
					}
				}
			},
			SendTo: func(to uint16, frame []byte) {
				c.sent[self] = append(c.sent[self], sentFrame{int(to), frame})
				c.queue = append(c.queue, replayDelivery{from: self, to: to, frame: frame})
			},
			Accept: func(entries []wire.AnnounceEntry) []bool {
				c.asked[self] = append(c.asked[self], entries)
				ok := make([]bool, len(entries))
				for j := range entries {
					ok[j] = entryValid(&entries[j])
				}
				return ok
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.engines = append(c.engines, e)
	}
	return c
}

// inject queues a frame from the Byzantine seat to one honest engine.
func (c *rbcCluster) inject(to uint16, m wire.Message) {
	c.queue = append(c.queue, replayDelivery{from: rbcByz, to: to, frame: wire.Encode(m)})
}

// send is the Byzantine broadcaster's SEND of payload p to engine `to`.
func (c *rbcCluster) send(to uint16, p *wire.RBCEcho) {
	c.inject(to, &wire.RBCDigest{Sender: rbcByz, Broadcaster: rbcByz, Hash: p.Digest()})
}

func (c *rbcCluster) drain() {
	for len(c.queue) > 0 {
		d := c.queue[0]
		c.queue = c.queue[1:]
		msg, err := wire.Decode(d.frame)
		if err != nil {
			c.t.Fatalf("engine %d emitted a malformed frame: %v", d.from, err)
		}
		if d.to != rbcByz {
			c.engines[d.to].Handle(d.from, msg)
			continue
		}
		if pull, ok := msg.(*wire.RBCPull); ok {
			c.pulls = append(c.pulls, d)
			if c.answer != nil {
				if reply := c.answer(d.from, pull); reply != nil {
					c.inject(d.from, reply)
				}
			}
		}
	}
}

// start starts the honest broadcasts: engine i proposes ballot i+1.
func (c *rbcCluster) start() {
	for i, e := range c.engines {
		s := uint64(i + 1)
		if err := e.Start(wire.NewRBCEcho(0, 0, []wire.AnnounceEntry{{Serial: s, Code: []byte{byte(s)}}}), nil); err != nil {
			c.t.Fatal(err)
		}
	}
}

// finish runs agreement to the end and returns every engine's decision
// vector.
func (c *rbcCluster) finish() [][]byte {
	c.drain()
	for i, e := range c.engines {
		if e.Decided() != 4 {
			c.t.Fatalf("engine %d decided %d of 4 instances with nothing left in flight", i, e.Decided())
		}
	}
	out := make([][]byte, len(c.engines))
	for i, e := range c.engines {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		d, err := e.Results(ctx)
		cancel()
		if err != nil {
			c.t.Fatalf("engine %d: %v", i, err)
		}
		out[i] = d
	}
	return out
}

// validated returns what engine i kept of the Byzantine seat's broadcast,
// and whether it delivered at all.
func (c *rbcCluster) validated(i int) ([]wire.AnnounceEntry, bool) {
	e := c.engines[i]
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rbc[rbcByz].validated, e.rbc[rbcByz].delivered
}

// frames returns the frames of one kind engine i sent, decoded, with their
// destinations.
func (c *rbcCluster) frames(i int, k wire.Kind) ([]wire.Message, []int) {
	var msgs []wire.Message
	var to []int
	for _, f := range c.sent[i] {
		if wire.Kind(f.frame[0]) != k {
			continue
		}
		m, err := wire.Decode(f.frame)
		if err != nil {
			c.t.Fatal(err)
		}
		msgs, to = append(msgs, m), append(to, f.to)
	}
	return msgs, to
}

// byzFrames is frames narrowed to the Byzantine seat's broadcast.
func (c *rbcCluster) byzFrames(i int, k wire.Kind) ([]wire.Message, []int) {
	msgs, to := c.frames(i, k)
	var outM []wire.Message
	var outTo []int
	for j, m := range msgs {
		if broadcaster(m) == rbcByz {
			outM, outTo = append(outM, m), append(outTo, to[j])
		}
	}
	return outM, outTo
}

// broadcaster is the broadcast a reliable-broadcast frame is about, or -1.
func broadcaster(msg wire.Message) int {
	switch m := msg.(type) {
	case *wire.RBCDigest:
		return int(m.Broadcaster)
	case *wire.RBCPull:
		return int(m.Broadcaster)
	case *wire.RBCEcho:
		return int(m.Broadcaster)
	case *wire.RBCReady:
		return int(m.Broadcaster)
	}
	return -1
}

// answerWith makes the Byzantine seat answer every pull from engine k with
// payloads[k] (nil answers nothing to k).
func (c *rbcCluster) answerWith(payloads []*wire.RBCEcho) {
	c.answer = func(from uint16, _ *wire.RBCPull) wire.Message {
		if p := payloads[from]; p != nil {
			return p
		}
		return nil
	}
}

func entries(codes ...string) []wire.AnnounceEntry {
	out := make([]wire.AnnounceEntry, len(codes))
	for i, code := range codes {
		out[i] = wire.AnnounceEntry{Serial: uint64(5 + i), Code: []byte(code)}
	}
	return out
}

func byzPayload(e []wire.AnnounceEntry) *wire.RBCEcho {
	if e == nil {
		return nil
	}
	return wire.NewRBCEcho(rbcByz, rbcByz, e)
}

func TestRBCByzantineBroadcaster(t *testing.T) {
	good, mixed, other := entries("a", "b"), entries("a", "x-forged", "c"), entries("a", "d")
	cases := []struct {
		name string
		// sends[k] is the payload whose digest the broadcaster SENDs to
		// honest engine k, and answers k's pull with; nil sends nothing.
		sends [][]wire.AnnounceEntry
		// want is the filtered payload every engine must hold; nil means the
		// broadcast must not deliver anywhere.
		want []wire.AnnounceEntry
	}{
		{name: "valid payload", sends: [][]wire.AnnounceEntry{good, good, good}, want: good},
		{name: "invalid entries are filtered one by one, not the broadcast",
			sends: [][]wire.AnnounceEntry{mixed, mixed, mixed}, want: []wire.AnnounceEntry{mixed[0], mixed[2]}},
		{name: "empty payload", sends: [][]wire.AnnounceEntry{{}, {}, {}}, want: []wire.AnnounceEntry{}},
		{name: "one engine never hears the broadcaster (totality)",
			sends: [][]wire.AnnounceEntry{good, good, nil}, want: good},
		{name: "equivocation with a majority payload",
			sends: [][]wire.AnnounceEntry{good, other, good}, want: good},
		{name: "equivocation with three payloads delivers nowhere",
			sends: [][]wire.AnnounceEntry{good, other, mixed}, want: nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newRBCCluster(t, 8)
			payloads := make([]*wire.RBCEcho, rbcByz)
			for k, p := range tc.sends {
				if payloads[k] = byzPayload(p); p != nil {
					c.send(uint16(k), payloads[k])
				}
			}
			c.answerWith(payloads)
			c.start()
			decisions := c.finish()

			for i := range c.engines {
				got, delivered := c.validated(i)
				if delivered != (tc.want != nil) {
					t.Fatalf("engine %d delivered = %v, want %v", i, delivered, tc.want != nil)
				}
				if delivered && !sameEntries(got, tc.want) {
					t.Fatalf("engine %d validated %v, want %v", i, got, tc.want)
				}
				// The host judges each delivered broadcast exactly once: three
				// honest ones, plus the Byzantine one if it delivered.
				wantAsked := 3
				if tc.want != nil {
					wantAsked = 4
				}
				if len(c.asked[i]) != wantAsked {
					t.Fatalf("engine %d asked its host about %d payloads, want %d", i, len(c.asked[i]), wantAsked)
				}
				// One ECHO per broadcaster at most, whatever the broadcaster
				// sent: its own SEND, two honest echoes, one Byzantine echo.
				echoes, _ := c.frames(i, wire.KindRBCDigest)
				if wantEchoes := 3 + btoi(tc.sends[i] != nil); len(echoes) != wantEchoes {
					t.Fatalf("engine %d multicast %d ECHO frames, want %d", i, len(echoes), wantEchoes)
				}
				if !bytes.Equal(decisions[i], decisions[0]) {
					t.Fatalf("engine %d decided %v, engine 0 decided %v", i, decisions[i], decisions[0])
				}
			}
			// Ballots 1-3 come from the honest proposals; the Byzantine
			// payload adds its valid entries iff it delivered.
			want := []byte{1, 1, 1, 0, 0, 0, 0, 0}
			for _, e := range tc.want {
				want[e.Serial-1] = 1
			}
			if !bytes.Equal(decisions[0], want) {
				t.Fatalf("decided %v, want %v", decisions[0], want)
			}
		})
	}
}

// sameEntries compares entry lists by their canonical encoding.
func sameEntries(a, b []wire.AnnounceEntry) bool {
	return bytes.Equal(wire.NewRBCEcho(0, 0, a).Payload(), wire.NewRBCEcho(0, 0, b).Payload())
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestRBCRelaysThePayloadBytes: a pull reply carries the broadcaster's
// payload byte for byte (it is never re-derived from the decoded entries),
// and the digest the ECHOes and READYs vote for is the digest of those bytes
// — identical at every engine, whether it pulled the payload from the
// broadcaster or from a peer. Engine 2 never hears the SEND, so it pulls
// from the two engines that ECHOed, and each answers it once.
func TestRBCRelaysThePayloadBytes(t *testing.T) {
	c := newRBCCluster(t, 8)
	origin := wire.NewRBCEcho(rbcByz, rbcByz, entries("a", "x-forged", "c"))
	c.send(0, origin)
	c.send(1, origin)
	c.answerWith([]*wire.RBCEcho{origin, origin, nil})
	c.start()
	c.drain()
	want := origin.Digest()
	for i := range c.engines {
		if _, delivered := c.validated(i); !delivered {
			t.Fatalf("engine %d did not deliver", i)
		}
		echoes, _ := c.byzFrames(i, wire.KindRBCDigest)
		for _, msg := range echoes {
			if msg.(*wire.RBCDigest).Hash != want {
				t.Fatalf("engine %d echoed another digest", i)
			}
		}
		readies, _ := c.byzFrames(i, wire.KindRBCReady)
		for _, msg := range readies {
			if !bytes.Equal(msg.(*wire.RBCReady).Hash, want[:]) {
				t.Fatalf("engine %d voted READY for another digest", i)
			}
		}
		relays, to := c.byzFrames(i, wire.KindRBCEcho)
		for j, msg := range relays {
			m := msg.(*wire.RBCEcho)
			if m.Sender != uint16(i) || m.Broadcaster != rbcByz || to[j] != 2 || !bytes.Equal(m.Payload(), origin.Payload()) {
				t.Fatalf("engine %d relayed a different payload, or to engine %d", i, to[j])
			}
		}
		pulls, _ := c.byzFrames(i, wire.KindRBCPull)
		// Engines 0 and 1 echo and pull once, from the broadcaster; engine 2
		// does not echo, and pulls from both of them.
		wantEchoes, wantRelays, wantPulls := 1, 1, 1
		if i == 2 {
			wantEchoes, wantRelays, wantPulls = 0, 0, 2
		}
		if len(echoes) != wantEchoes || len(readies) != 1 || len(relays) != wantRelays || len(pulls) != wantPulls {
			t.Fatalf("engine %d sent %d ECHOes, %d READYs, %d relays and %d pulls, want %d, 1, %d and %d",
				i, len(echoes), len(readies), len(relays), len(pulls), wantEchoes, wantRelays, wantPulls)
		}
	}
}

// TestRBCPayloadAfterReadyQuorum: READYs can outrun the payload. The
// broadcast then completes through a pull from the ECHO senders: none can be
// pulled before an ECHO names one, and a reply from a peer that was not
// asked is dropped.
func TestRBCPayloadAfterReadyQuorum(t *testing.T) {
	c := newRBCCluster(t, 8)
	e := c.engines[0]
	if err := e.Start(wire.NewRBCEcho(0, 0, entries("own")), nil); err != nil {
		t.Fatal(err)
	}
	payload := wire.NewRBCEcho(1, rbcByz, entries("a", "b"))
	h := payload.Digest()
	for from := uint16(1); from <= 3; from++ {
		e.Handle(from, &wire.RBCReady{Sender: from, Broadcaster: rbcByz, Hash: h[:]})
	}
	if _, delivered := c.validated(0); delivered {
		t.Fatal("delivered without the payload")
	}
	if pulls, _ := c.byzFrames(0, wire.KindRBCPull); len(pulls) != 0 {
		t.Fatalf("pulled %d times with no ECHO sender to pull from", len(pulls))
	}
	e.Handle(2, payload.Relay(2, rbcByz))
	if _, delivered := c.validated(0); delivered {
		t.Fatal("delivered an unsolicited payload")
	}
	e.Handle(1, &wire.RBCDigest{Sender: 1, Broadcaster: rbcByz, Hash: h})
	pulls, to := c.byzFrames(0, wire.KindRBCPull)
	if len(pulls) != 1 || to[0] != 1 || pulls[0].(*wire.RBCPull).Hash != h {
		t.Fatalf("sent pulls %v to %v, want one for the digest to engine 1", pulls, to)
	}
	e.Handle(1, payload)
	got, delivered := c.validated(0)
	if !delivered || len(got) != 2 {
		t.Fatalf("delivered = %v with %d entries, want the 2-entry payload", delivered, len(got))
	}
}

// TestRBCEquivocatingDigests: a broadcaster that SENDs a different digest to
// each honest engine, and answers each pull with the matching payload, gets
// each engine to ECHO only the digest it was sent and now holds. No digest
// reaches a quorum, nothing is delivered, and no honest engine is asked for
// the payload or sends one.
func TestRBCEquivocatingDigests(t *testing.T) {
	c := newRBCCluster(t, 8)
	payloads := []*wire.RBCEcho{byzPayload(entries("a")), byzPayload(entries("b")), byzPayload(entries("c"))}
	for k, p := range payloads {
		c.send(uint16(k), p)
	}
	c.answerWith(payloads)
	c.start()
	decisions := c.finish()
	for i := range c.engines {
		if _, delivered := c.validated(i); delivered {
			t.Fatalf("engine %d delivered an equivocated broadcast", i)
		}
		digests, _ := c.byzFrames(i, wire.KindRBCDigest)
		for _, msg := range digests {
			if msg.(*wire.RBCDigest).Hash != payloads[i].Digest() {
				t.Fatalf("engine %d echoed a digest it was not sent", i)
			}
		}
		if relays, _ := c.byzFrames(i, wire.KindRBCEcho); len(relays) != 0 {
			t.Fatalf("engine %d sent %d payloads", i, len(relays))
		}
		if !bytes.Equal(decisions[i], []byte{1, 1, 1, 0, 0, 0, 0, 0}) {
			t.Fatalf("engine %d decided %v", i, decisions[i])
		}
	}
}

// TestRBCSilentBroadcaster: a broadcaster that SENDs a digest nobody holds
// and never answers a pull is asked once by each engine, never ECHOed, and
// its instance decides 0 by the completion rule — no timer, no retry.
func TestRBCSilentBroadcaster(t *testing.T) {
	c := newRBCCluster(t, 8)
	p := byzPayload(entries("a"))
	for k := uint16(0); k < rbcByz; k++ {
		c.send(k, p)
	}
	c.start()
	decisions := c.finish()
	if len(c.pulls) != rbcByz {
		t.Fatalf("the silent broadcaster was pulled %d times, want once per engine", len(c.pulls))
	}
	for i := range c.engines {
		if digests, _ := c.byzFrames(i, wire.KindRBCDigest); len(digests) != 0 {
			t.Fatalf("engine %d echoed a digest it does not hold", i)
		}
		if !bytes.Equal(decisions[i], []byte{1, 1, 1, 0, 0, 0, 0, 0}) {
			t.Fatalf("engine %d decided %v", i, decisions[i])
		}
	}
}

// TestRBCWrongPayloadIgnored: engine 0's pull is answered with a payload of
// another digest (and it is also pushed one it never asked for). It keeps
// neither, so it cannot ECHO; the other two ECHO, their READYs reach engine
// 0, and it delivers the right payload through a pull from them. Its host is
// never shown the wrong one.
func TestRBCWrongPayloadIgnored(t *testing.T) {
	c := newRBCCluster(t, 8)
	good, wrong := byzPayload(entries("a", "b")), byzPayload(entries("x-wrong"))
	c.inject(0, wrong)
	for k := uint16(0); k < rbcByz; k++ {
		c.send(k, good)
	}
	c.answerWith([]*wire.RBCEcho{wrong, good, good})
	c.start()
	c.finish()
	got, delivered := c.validated(0)
	if !delivered || !sameEntries(got, good.Entries()) {
		t.Fatalf("engine 0 delivered = %v with %v, want the right payload", delivered, got)
	}
	for _, judged := range c.asked[0] {
		if sameEntries(judged, wrong.Entries()) {
			t.Fatal("engine 0's host judged the wrong payload")
		}
	}
	e := c.engines[0]
	e.mu.Lock()
	kept := e.held[wrong.Digest()]
	e.mu.Unlock()
	if kept != nil {
		t.Fatal("engine 0 kept the wrong payload")
	}
	if pulls, _ := c.byzFrames(0, wire.KindRBCPull); len(pulls) != 3 {
		t.Fatalf("engine 0 pulled %d times, want the broadcaster and then both echoers", len(pulls))
	}
}

// TestRBCPullFloodAnsweredOnce: a peer that pulls the same payload over and
// over is answered once per (requester, broadcaster); pulls for a digest the
// node does not hold, or for an out-of-range broadcaster, get nothing.
func TestRBCPullFloodAnsweredOnce(t *testing.T) {
	c := newRBCCluster(t, 8)
	e := c.engines[0]
	own := wire.NewRBCEcho(0, 0, entries("own"))
	if err := e.Start(own, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		for b := uint16(0); b < 2; b++ {
			e.Handle(rbcByz, &wire.RBCPull{Sender: rbcByz, Broadcaster: b, Hash: own.Digest()})
		}
		e.Handle(rbcByz, &wire.RBCPull{Sender: rbcByz, Broadcaster: 2, Hash: [32]byte{1}})
		e.Handle(rbcByz, &wire.RBCPull{Sender: rbcByz, Broadcaster: 9, Hash: own.Digest()})
	}
	relays, to := c.frames(0, wire.KindRBCEcho)
	if len(relays) != 2 {
		t.Fatalf("answered %d pulls, want one per broadcaster the payload was asked as", len(relays))
	}
	for j, msg := range relays {
		m := msg.(*wire.RBCEcho)
		if to[j] != rbcByz || m.Broadcaster != uint16(j) || !bytes.Equal(m.Payload(), own.Payload()) {
			t.Fatalf("reply %d went to %d as broadcaster %d's payload", j, to[j], m.Broadcaster)
		}
	}
}

// TestRBCIdenticalProposalsSendNoPayload: when every node proposes the same
// set — the honest case after ANNOUNCE — each holds every broadcaster's
// payload from the start, so not one pull or payload-carrying frame is sent.
func TestRBCIdenticalProposalsSendNoPayload(t *testing.T) {
	var queue []replayDelivery
	var payloads, pulls int
	engines := make([]*Engine, replayNodes)
	for i := range engines {
		self := uint16(i)
		e, err := New(Config{
			N: replayNodes, F: replayFaults, Self: self, Ballots: 8,
			Coin: consensus.NewHashCoin([]byte("rbc-identical")),
			Send: func(frame []byte) {
				for to := uint16(0); to < replayNodes; to++ {
					if to != self {
						queue = append(queue, replayDelivery{from: self, to: to, frame: frame})
					}
				}
			},
			SendTo: func(uint16, []byte) { pulls++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	for _, e := range engines {
		if err := e.Start(wire.NewRBCEcho(0, 0, entries("a", "b", "c")), nil); err != nil {
			t.Fatal(err)
		}
	}
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		if wire.Kind(d.frame[0]) == wire.KindRBCEcho {
			payloads++
		}
		msg, err := wire.Decode(d.frame)
		if err != nil {
			t.Fatal(err)
		}
		engines[d.to].Handle(d.from, msg)
	}
	if payloads != 0 || pulls != 0 {
		t.Fatalf("sent %d payload frames and %d unicasts, want none", payloads, pulls)
	}
	for i, e := range engines {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		got, err := e.Results(ctx)
		cancel()
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
		if !bytes.Equal(got, []byte{0, 0, 0, 0, 1, 1, 1, 0}) {
			t.Fatalf("engine %d decided %v", i, got)
		}
	}
}

// TestRBCCountsOneVotePerPeer: a peer cycling through digests has only its
// first ECHO and first READY per broadcaster counted, so it grows no state.
func TestRBCCountsOneVotePerPeer(t *testing.T) {
	c := newRBCCluster(t, 8)
	e := c.engines[0]
	for i := 0; i < 100; i++ {
		h := [32]byte{byte(i), 0xEC}
		e.Handle(rbcByz, &wire.RBCDigest{Sender: rbcByz, Broadcaster: 1, Hash: h})
		e.Handle(rbcByz, &wire.RBCReady{Sender: rbcByz, Broadcaster: 1, Hash: h[:]})
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if st := e.rbc[1]; len(st.echoes) != 1 || len(st.readies) != 1 {
		t.Fatalf("tallied %d ECHO and %d READY digests from one peer, want 1 and 1", len(st.echoes), len(st.readies))
	}
}

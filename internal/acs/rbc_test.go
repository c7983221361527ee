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

type rbcCluster struct {
	t       *testing.T
	engines []*Engine
	queue   []replayDelivery
	sent    [][][]byte               // per engine: every frame it multicast
	asked   [][][]wire.AnnounceEntry // per engine: every payload its host judged
}

func entryValid(e *wire.AnnounceEntry) bool { return len(e.Code) == 0 || e.Code[0] != 'x' }

func newRBCCluster(t *testing.T, ballots uint32) *rbcCluster {
	t.Helper()
	c := &rbcCluster{t: t, sent: make([][][]byte, rbcByz), asked: make([][][]wire.AnnounceEntry, rbcByz)}
	for i := 0; i < rbcByz; i++ {
		self := uint16(i)
		e, err := New(Config{
			N: 4, F: 1, Self: self, Ballots: ballots,
			Coin: consensus.NewHashCoin([]byte("rbc-test")),
			Send: func(frame []byte) {
				c.sent[self] = append(c.sent[self], frame)
				for to := uint16(0); to < rbcByz; to++ {
					if to != self {
						c.queue = append(c.queue, replayDelivery{from: self, to: to, frame: frame})
					}
				}
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

func (c *rbcCluster) drain() {
	for len(c.queue) > 0 {
		d := c.queue[0]
		c.queue = c.queue[1:]
		msg, err := wire.Decode(d.frame)
		if err != nil {
			c.t.Fatalf("engine %d emitted a malformed frame: %v", d.from, err)
		}
		c.engines[d.to].Handle(d.from, msg)
	}
}

// finish starts the honest broadcasts (engine i proposes ballot i+1), runs
// agreement to the end and returns every engine's decision vector.
func (c *rbcCluster) finish() [][]byte {
	for i, e := range c.engines {
		s := uint64(i + 1)
		if err := e.Start([]wire.AnnounceEntry{{Serial: s, Code: []byte{byte(s)}}}, nil); err != nil {
			c.t.Fatal(err)
		}
	}
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

func entries(codes ...string) []wire.AnnounceEntry {
	out := make([]wire.AnnounceEntry, len(codes))
	for i, code := range codes {
		out[i] = wire.AnnounceEntry{Serial: uint64(5 + i), Code: []byte(code)}
	}
	return out
}

func TestRBCByzantineBroadcaster(t *testing.T) {
	good, mixed, other := entries("a", "b"), entries("a", "x-forged", "c"), entries("a", "d")
	cases := []struct {
		name string
		// sends[k] is the payload the broadcaster's ECHO carries to honest
		// engine k; nil sends nothing to it.
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
			for k, payload := range tc.sends {
				if payload != nil {
					c.inject(uint16(k), wire.NewRBCEcho(rbcByz, rbcByz, payload))
				}
			}
			c.drain()
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
				// sent: its own, two honest relays, one Byzantine relay.
				echoes := 0
				for _, frame := range c.sent[i] {
					if wire.Kind(frame[0]) == wire.KindRBCEcho {
						echoes++
					}
				}
				if wantEchoes := 3 + btoi(tc.sends[i] != nil); echoes != wantEchoes {
					t.Fatalf("engine %d multicast %d ECHO frames, want %d", i, echoes, wantEchoes)
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

// TestRBCRelaysThePayloadBytes: a relayed ECHO carries the broadcaster's
// payload byte for byte (it is never re-derived from the decoded entries),
// and the hash a READY votes for is the hash of those bytes — identical at
// every engine, whether it encoded the payload or decoded it.
func TestRBCRelaysThePayloadBytes(t *testing.T) {
	c := newRBCCluster(t, 8)
	origin := wire.NewRBCEcho(rbcByz, rbcByz, entries("a", "x-forged", "c"))
	for k := uint16(0); k < rbcByz; k++ {
		c.inject(k, origin)
	}
	c.drain()
	want := payloadHash(origin)
	for i := range c.engines {
		var relays, readies int
		for _, frame := range c.sent[i] {
			msg, err := wire.Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			switch m := msg.(type) {
			case *wire.RBCEcho:
				relays++
				if m.Sender != uint16(i) || m.Broadcaster != rbcByz || !bytes.Equal(m.Payload(), origin.Payload()) {
					t.Fatalf("engine %d relayed a different payload", i)
				}
			case *wire.RBCReady:
				readies++
				if !bytes.Equal(m.Hash, want[:]) {
					t.Fatalf("engine %d voted READY for another hash", i)
				}
			}
		}
		if relays != 1 || readies != 1 {
			t.Fatalf("engine %d sent %d relays and %d READYs, want 1 and 1", i, relays, readies)
		}
	}
}

// TestRBCPayloadAfterReadyQuorum: READYs can outrun the payload; the
// broadcast then completes on the first ECHO that brings it.
func TestRBCPayloadAfterReadyQuorum(t *testing.T) {
	c := newRBCCluster(t, 8)
	e := c.engines[0]
	echo := wire.NewRBCEcho(1, rbcByz, entries("a", "b"))
	h := payloadHash(echo)
	for from := uint16(1); from <= 3; from++ {
		e.Handle(from, &wire.RBCReady{Sender: from, Broadcaster: rbcByz, Hash: h[:]})
	}
	if _, delivered := c.validated(0); delivered {
		t.Fatal("delivered without the payload")
	}
	e.Handle(1, echo)
	got, delivered := c.validated(0)
	if !delivered || len(got) != 2 {
		t.Fatalf("delivered = %v with %d entries, want the 2-entry payload", delivered, len(got))
	}
}

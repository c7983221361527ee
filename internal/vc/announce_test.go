package vc

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"ddemos/internal/clock"
	"ddemos/internal/ea"
	"ddemos/internal/journal"
	"ddemos/internal/transport"
	"ddemos/internal/wire"
)

// These tests pin the serial-set announce: an ANNOUNCE-SET names serials,
// a node pulls with one RECOVER-REQUEST only the entries of serials it holds
// no certificate for, and a peer's announce counts toward the Nv-fv gate
// when nothing is missing or once that pull is answered.

// serialsBitmap is the bitmap of serials over a pool of n.
func serialsBitmap(n int, serials ...uint64) wire.SerialBitmap {
	b := wire.NewSerialBitmap(n)
	for _, s := range serials {
		b.Set(s)
	}
	return b
}

// span lists the serials lo..hi.
func span(lo, hi uint64) []uint64 {
	var out []uint64
	for s := lo; s <= hi; s++ {
		out = append(out, s)
	}
	return out
}

// signedEntries certifies option 0 of each serial, signed by nodes 0-2.
func signedEntries(t *testing.T, data *ea.ElectionData, serials []uint64) []wire.AnnounceEntry {
	t.Helper()
	out := make([]wire.AnnounceEntry, 0, len(serials))
	for _, s := range serials {
		out = append(out, signedEntry(data, s, optionCode(t, data, s, 0), 0, 1, 2))
	}
	return out
}

// startConsensus runs VoteSetConsensus on an un-started host in the
// background and returns once its engine is installed. The test plays the
// network: it hands the host frames through routeConsensus, as its pump
// would, and reads what the host sends from its peers' endpoints.
func startConsensus(t *testing.T, n *Node) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = n.VoteSetConsensus(ctx)
	}()
	t.Cleanup(func() { cancel(); <-done })
	waitFor(t, func() bool { return n.engineInstalled() != nil })
}

// engineInstalled returns the node's running consensus, or nil.
func (n *Node) engineInstalled() *vscEngine {
	n.vscMu.Lock()
	defer n.vscMu.Unlock()
	return n.vsc
}

// gateOpen reports whether Nv-fv announces have counted.
func gateOpen(n *Node) bool {
	select {
	case <-n.engineInstalled().announceReady:
		return true
	default:
		return false
	}
}

// nextFrom reads what node `from` sent to endpoint ep until a message of
// type M arrives.
func nextFrom[M wire.Message](t *testing.T, ep transport.Endpoint, from uint16) M {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case env := <-ep.Recv():
			if uint16(env.From) != from { //nolint:gosec // small
				continue
			}
			msg, err := wire.Decode(env.Payload)
			if err != nil {
				t.Fatalf("node %d sent a malformed frame: %v", from, err)
			}
			if m, ok := msg.(M); ok {
				return m
			}
		case <-deadline:
			var zero M
			t.Fatalf("node %d sent no %T", from, zero)
		}
	}
}

// TestAnnounceGateWaitsForPullAnswer: a Byzantine peer that announces every
// serial is pulled from for the ones the node lacks and counts only once it
// answers. Silent, it cannot hold the gate (the honest peers open it); with
// garbage, it counts, and the garbage is counted as bad and installs
// nothing. A bitmap past the pool is refused and pulls nothing.
func TestAnnounceGateWaitsForPullAnswer(t *testing.T) {
	for _, mode := range []string{"silent", "garbage"} {
		t.Run(mode, func(t *testing.T) {
			data, nodes := memoHosts(t, memoBallots)
			n := nodes[0]
			warm(t, n, signedEntries(t, data, span(1, 6))...)
			startConsensus(t, n)
			if !nextFrom[*wire.AnnounceSet](t, nodes[1].ep, 0).Bitmap.Within(memoBallots) {
				t.Fatal("the node's own announce is past the pool")
			}

			// Refused: one byte past the pool, and a bit past its last serial.
			bad := n.Metrics().BadMessages
			n.routeConsensus(2, &wire.AnnounceSet{Sender: 2, Bitmap: append(serialsBitmap(memoBallots, 1), 0xFF)})
			n.routeConsensus(2, &wire.AnnounceSet{Sender: 2, Bitmap: wire.SerialBitmap{0, 0x10}})
			if got := n.Metrics().BadMessages - bad; got != 2 {
				t.Fatalf("%d bad messages counted for two out-of-pool bitmaps, want 2", got)
			}

			n.routeConsensus(3, &wire.AnnounceSet{Sender: 3, Bitmap: serialsBitmap(memoBallots, span(1, memoBallots)...)})
			req := nextFrom[*wire.RecoverRequest](t, nodes[3].ep, 0)
			if !slices.Equal(req.Serials, span(7, memoBallots)) {
				t.Fatalf("pulled %v from the peer that announced every serial, want %v", req.Serials, span(7, memoBallots))
			}
			n.routeConsensus(1, &wire.AnnounceSet{Sender: 1, Bitmap: serialsBitmap(memoBallots, span(1, 6)...)})
			if gateOpen(n) {
				t.Fatal("the gate opened on an announce whose pull is unanswered")
			}

			bad = n.Metrics().BadMessages
			if mode == "garbage" {
				garbage := signedEntries(t, data, span(7, memoBallots))
				for i := range garbage {
					garbage[i].Cert.Sigs[1].Sig[0] ^= 1
				}
				n.routeConsensus(3, &wire.RecoverResponse{Entries: garbage})
				if got := n.Metrics().BadMessages - bad; got != int64(len(garbage)) {
					t.Fatalf("%d bad messages counted for %d garbage entries", got, len(garbage))
				}
				if !gateOpen(n) {
					t.Fatal("the answered announce did not count")
				}
			} else {
				n.routeConsensus(2, &wire.AnnounceSet{Sender: 2, Bitmap: serialsBitmap(memoBallots, span(1, 6)...)})
				if !gateOpen(n) {
					t.Fatal("a silent peer held the gate shut")
				}
			}
			for _, s := range span(7, memoBallots) {
				if n.certifiedCode(s) != nil {
					t.Fatalf("ballot %d was installed from the Byzantine peer", s)
				}
			}
		})
	}
}

// TestRecoverAnswersBoundedPerPeer: a flood of pulls from one peer is
// answered with at most recoverBudget entries per recoverRetryInterval, each
// answer naming a serial once; the budget refills with the next interval.
func TestRecoverAnswersBoundedPerPeer(t *testing.T) {
	data, nodes := memoHosts(t, memoBallots)
	n := nodes[0]
	warm(t, n, signedEntries(t, data, span(1, memoBallots))...)
	n.vscMu.Lock()
	n.vscDone, n.vscResult = true, []VotedBallot{} // an idle, finished node
	n.vscMu.Unlock()

	all := span(1, memoBallots)
	flood := &wire.RecoverRequest{Serials: append(append(slices.Clone(all), all...), 0, memoBallots+1)}
	// drain reads node 0's answers to peer 3: until they carry want entries,
	// then until none has come for a while, so an excess shows.
	drain := func(want int) (entries int) {
		for {
			wait := 5 * time.Second
			if entries >= want {
				wait = 100 * time.Millisecond
			}
			select {
			case env := <-nodes[3].ep.Recv():
				msg, err := wire.Decode(env.Payload)
				if err != nil {
					t.Fatal(err)
				}
				resp := msg.(*wire.RecoverResponse)
				seen := make(map[uint64]bool)
				for _, e := range resp.Entries {
					if seen[e.Serial] {
						t.Fatalf("an answer names ballot %d twice", e.Serial)
					}
					seen[e.Serial] = true
				}
				entries += len(resp.Entries)
			case <-time.After(wait):
				return entries
			}
		}
	}
	for i := 0; i < 100; i++ {
		n.routeConsensus(3, flood)
	}
	if got, want := drain(recoverBudget(memoBallots)), recoverBudget(memoBallots); got != want {
		t.Fatalf("100 pulls of every ballot were answered with %d entries, want the budget %d", got, want)
	}
	n.clk.(*clock.Fake).Advance(recoverRetryInterval)
	n.routeConsensus(3, flood)
	if got := drain(memoBallots); got != memoBallots {
		t.Fatalf("the next interval answered %d entries, want %d", got, memoBallots)
	}
}

// sentFrame is one frame a node sent, decoded.
type sentFrame struct {
	from, to uint16
	msg      wire.Message
}

// recorder is an endpoint stack that logs every frame a node sends.
type recorder struct {
	mu   sync.Mutex
	sent []sentFrame
}

func (r *recorder) stack(_ int, _ *ea.ElectionData, ep transport.Endpoint, _ clock.Timers) transport.Endpoint {
	return &recordingEndpoint{Endpoint: ep, r: r}
}

type recordingEndpoint struct {
	transport.Endpoint
	r *recorder
}

func (e *recordingEndpoint) Send(to transport.NodeID, payload []byte) error {
	if msg, err := wire.Decode(payload); err == nil {
		e.r.mu.Lock()
		e.r.sent = append(e.r.sent, sentFrame{uint16(e.ID()), uint16(to), msg}) //nolint:gosec // small
		e.r.mu.Unlock()
	}
	return e.Endpoint.Send(to, payload)
}

// frames returns the recorded frames of type M.
func frames[M wire.Message](r *recorder) []sentFrame {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []sentFrame
	for _, f := range r.sent {
		if _, ok := f.msg.(M); ok {
			out = append(out, f)
		}
	}
	return out
}

// entriesMoved counts the certified entries the recorded frames carried.
func (r *recorder) entriesMoved() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	moved := 0
	for _, f := range r.sent {
		switch m := f.msg.(type) {
		case *wire.RecoverResponse:
			moved += len(m.Entries)
		case *wire.RBCEcho:
			moved += len(m.Entries())
		}
	}
	return moved
}

// forEachEngine runs fn once per consensus engine, by name.
func forEachEngine(t *testing.T, fn func(t *testing.T, name string, engine EngineFactory)) {
	for _, name := range []string{"interlocked", "acs"} {
		engine, err := ParseEngine(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { fn(t, name, engine) })
	}
}

// TestLaggingNodePullsExactlyWhatItLacks: a node that missed the last
// ballots pulls exactly those serials, from peers whose announce names them,
// and agrees on its peers' set holding their certificates; nobody pulls from
// it, and nothing else moves an entry.
func TestLaggingNodePullsExactlyWhatItLacks(t *testing.T) {
	const (
		numVC      = 4
		numBallots = 12
	)
	forEachEngine(t, func(t *testing.T, _ string, engine EngineFactory) {
		rec := &recorder{}
		c := newSimClusterJE(t, 5, nil, numBallots, numVC,
			transport.LinkProfile{Latency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond},
			rec.stack, nil, journal.Options{}, engine)
		voted := signedEntries(t, c.data, span(1, 10))
		for i := 0; i < numVC; i++ {
			if i == 0 {
				warm(t, c.node(i), voted[:6]...)
			} else {
				warm(t, c.node(i), voted...)
			}
		}
		sets := runConsensusAll(t, c, 5, nil, numVC)
		for i := range sets {
			if len(sets[i]) != 10 || CanonicalVoteSetHash(c.data.Manifest.ElectionID, sets[i]) !=
				CanonicalVoteSetHash(c.data.Manifest.ElectionID, sets[1]) {
				t.Fatalf("node %d agreed on another set (%d ballots) than node 1", i, len(sets[i]))
			}
		}
		if got, want := certCodes(c.node(0)), certCodes(c.node(1)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("the lagging node holds %v, its peers %v", got, want)
		}
		reqs := frames[*wire.RecoverRequest](rec)
		if len(reqs) < c.node(0).hv-1 || len(reqs) > numVC-1 {
			t.Fatalf("%d pulls, want one to each of %d to %d peers", len(reqs), c.node(0).hv-1, numVC-1)
		}
		for _, f := range reqs {
			if serials := f.msg.(*wire.RecoverRequest).Serials; f.from != 0 || !slices.Equal(serials, span(7, 10)) {
				t.Fatalf("node %d pulled %v from node %d, want only node 0 pulling 7-10", f.from, serials, f.to)
			}
		}
		if moved := rec.entriesMoved(); moved != len(reqs)*4 {
			t.Fatalf("%d entries moved for %d pulls of 4", moved, len(reqs))
		}
	})
}

// TestEqualCertsMoveNoEntries: when every node holds the same certificates,
// consensus moves no certified entry — announces name serials, and the ACS
// proposals share one digest — and its traffic per ballot stays under a
// fixed bound: an entry-carrying announce alone was ≈ 3 000 B per ballot. The
// interlocked engine's bound is higher, as its agreement frames list every
// ballot's instance.
func TestEqualCertsMoveNoEntries(t *testing.T) {
	const (
		numVC      = 4
		numBallots = 200
	)
	maxPerBallot := map[string]int64{"interlocked": 1000, "acs": 100} // bytes of consensus traffic
	forEachEngine(t, func(t *testing.T, name string, engine EngineFactory) {
		rec := &recorder{}
		c := newSimClusterJE(t, 9, nil, numBallots, numVC,
			transport.LinkProfile{Latency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond},
			rec.stack, nil, journal.Options{}, engine)
		voted := signedEntries(t, c.data, span(1, numBallots))
		for i := 0; i < numVC; i++ {
			warm(t, c.node(i), voted...)
		}
		_, before := c.net.Stats()
		sets := runConsensusAll(t, c, 9, nil, numVC)
		_, after := c.net.Stats()
		if len(sets[0]) != numBallots {
			t.Fatalf("agreed on %d ballots, want %d", len(sets[0]), numBallots)
		}
		if moved := rec.entriesMoved(); moved != 0 {
			t.Fatalf("consensus moved %d certified entries between nodes holding the same ones", moved)
		}
		if per, bound := (after-before)/numBallots, maxPerBallot[name]; per > bound {
			t.Fatalf("consensus sent %d B per ballot, bound %d", per, bound)
		}
		t.Logf("%d B of consensus traffic, %d B per ballot", after-before, (after-before)/numBallots)
	})
}

// TestIdleNodeAnswersRestartedPeer: a node that lost everything and restarts
// after its peers finished announces an empty set; the idle peers answer
// with their signed final set, which it adopts.
func TestIdleNodeAnswersRestartedPeer(t *testing.T) {
	const (
		numVC      = 4
		numBallots = 8
	)
	rec := &recorder{}
	c := newSimClusterJE(t, 3, nil, numBallots, numVC,
		transport.LinkProfile{Latency: 200 * time.Microsecond}, rec.stack, nil, journal.Options{}, ACSEngine)
	voted := signedEntries(t, c.data, span(1, 6))
	for i := 0; i < numVC; i++ {
		warm(t, c.node(i), voted...)
	}
	sets := runConsensusAll(t, c, 3, nil, numVC)
	c.StopNode(3)
	c.RestartNode(3) // memory-only: no certificates, no result
	if len(certCodes(c.node(3))) != 0 {
		t.Fatal("the restarted node kept certificates")
	}
	again := runConsensusAll(t, c, 3, map[int]bool{0: true, 1: true, 2: true}, numVC)
	if CanonicalVoteSetHash(c.data.Manifest.ElectionID, again[3]) != CanonicalVoteSetHash(c.data.Manifest.ElectionID, sets[0]) {
		t.Fatal("the restarted node adopted another set")
	}
	finals := 0
	for _, f := range frames[*wire.VSCFinal](rec) {
		if f.to == 3 {
			finals++
		}
	}
	if finals < c.node(0).fv+1 {
		t.Fatalf("%d final sets reached the restarted node, want at least %d", finals, c.node(0).fv+1)
	}
}

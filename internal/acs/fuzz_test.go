package acs

import (
	"bytes"
	"context"
	"testing"
	"time"

	"ddemos/internal/consensus"
	"ddemos/internal/wire"
)

// replayNodes is the fuzz cluster shape: n=4, f=1 — the smallest
// configuration with a real quorum structure (n−f=3, f+1=2).
const replayNodes, replayFaults = 4, 1

// buildReplayEngines wires four engines over an in-memory queue of
// (from, to, frame) deliveries. Send fans each frame out to the other
// three, SendTo queues it for one; self-delivery happens inside the engine.
func buildReplayEngines(t *testing.T, queue *[]replayDelivery) []*Engine {
	t.Helper()
	engines := make([]*Engine, replayNodes)
	for i := range engines {
		self := uint16(i)
		e, err := New(Config{
			N: replayNodes, F: replayFaults, Self: self, Ballots: replayNodes,
			Coin: consensus.NewHashCoin([]byte("fuzz-aba-replay")),
			Send: func(frame []byte) {
				for to := uint16(0); to < replayNodes; to++ {
					if to != self {
						*queue = append(*queue, replayDelivery{from: self, to: to, frame: frame})
					}
				}
			},
			SendTo: func(to uint16, frame []byte) {
				*queue = append(*queue, replayDelivery{from: self, to: to, frame: frame})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	// Distinct overlapping proposals: node i certifies serials 1..i+1, so
	// the union depends on which broadcasts land in the common subset, and
	// every payload crosses the wire through pulls.
	for i, e := range engines {
		var proposal []wire.AnnounceEntry
		for s := uint64(1); s <= uint64(i+1); s++ {
			proposal = append(proposal, wire.AnnounceEntry{Serial: s, Code: []byte{byte(s)}})
		}
		if err := e.Start(wire.NewRBCEcho(uint16(i), uint16(i), proposal), nil); err != nil { //nolint:gosec // i < n
			t.Fatal(err)
		}
	}
	return engines
}

type replayDelivery struct {
	from, to uint16
	frame    []byte
}

// FuzzABAReplay replays one honest four-node ACS run under a fuzz-chosen
// message interleaving: each input byte delivers a queued frame (position and
// a duplicate bit taken from the byte). Channels are reliable — frames are
// reordered and duplicated, never dropped — and no timer drives the engine,
// so the run must terminate on deliveries alone: after the schedule, draining
// the queue must bring every engine to a fully decided, closed state before
// it runs dry, with no instance double-decided (decision counters
// consistent) and all four engines agreeing on the identical decision
// vector.
func FuzzABAReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Add(bytes.Repeat([]byte{0x45, 0x80, 0xFF, 0x13}, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		var queue []replayDelivery
		engines := buildReplayEngines(t, &queue)

		deliver := func(pick, flags byte) {
			if len(queue) == 0 {
				return
			}
			i := int(pick) % len(queue)
			d := queue[i]
			if flags&0x40 == 0 { // consume; a set bit re-delivers (duplication)
				queue[i] = queue[len(queue)-1]
				queue = queue[:len(queue)-1]
			}
			msg, err := wire.Decode(d.frame)
			if err != nil {
				t.Fatalf("engine %d emitted a malformed frame: %v", d.from, err)
			}
			engines[d.to].Handle(d.from, msg)
		}

		// Fuzz-scheduled phase: the input bytes pick the interleaving.
		for _, b := range data {
			deliver(b&0x3F, b)
		}

		// Drain phase: FIFO-deliver everything still in flight. 10k steps is
		// far beyond any legal run at this size.
		done := func() bool {
			for _, e := range engines {
				e.mu.Lock()
				ok := e.pending == 0 && e.closed
				e.mu.Unlock()
				if !ok {
					return false
				}
			}
			return true
		}
		for steps := 0; !done(); steps++ {
			if steps > 10000 || len(queue) == 0 {
				t.Fatalf("replay hung: %d frames queued, decided %d/%d/%d/%d",
					len(queue), engines[0].Decided(), engines[1].Decided(),
					engines[2].Decided(), engines[3].Decided())
			}
			deliver(0, 0)
		}

		// Terminal invariants: the core reported every instance's decision
		// to the engine exactly once, and all engines return the identical
		// decision vector.
		var want []byte
		for i, e := range engines {
			e.mu.Lock()
			pending := e.pending
			e.mu.Unlock()
			if decided := e.Decided(); decided != replayNodes || pending != 0 {
				t.Fatalf("engine %d: decision counters corrupt (core decided %d, hook owes %d) — double decide?",
					i, decided, pending)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			got, err := e.Results(ctx)
			cancel()
			if err != nil {
				t.Fatalf("engine %d: results after close: %v", i, err)
			}
			if i == 0 {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("engine %d decided %x, engine 0 decided %x", i, got, want)
			}
		}
	})
}

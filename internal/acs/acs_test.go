package acs

import (
	"bytes"
	"math/bits"
	"testing"

	"ddemos/internal/wire"
)

// TestBKRCompletionRule pins the one input rule that is ACS's own, on four
// live engines over the shared agreement core. Broadcaster 3's payload is
// held back by the network, so no engine can input 1 to its instance; the
// only way a 0 enters is the completion rule. An engine voting 0 on that
// instance in round 1 is therefore either applying the rule — allowed only
// once n-f instances decided 1 at that engine — or relaying f+1 earlier
// votes, which the first f+1 voters cannot be. The run must finish without
// the held frames, and releasing them afterwards (a late input 1 the core
// ignores) must change nothing.
func TestBKRCompletionRule(t *testing.T) {
	const late = replayNodes - 1
	var queue, held []replayDelivery
	engines := buildReplayEngines(t, &queue)

	decode := func(d replayDelivery) wire.Message {
		msg, err := wire.Decode(d.frame)
		if err != nil {
			t.Fatalf("engine %d emitted a malformed frame: %v", d.from, err)
		}
		return msg
	}
	votesZero := func(msg wire.Message) bool {
		m, ok := msg.(*wire.Consensus)
		if !ok {
			return false
		}
		for _, g := range m.Groups {
			if g.Step == wire.StepBVal && g.Round == 1 && g.Value == 0 {
				for _, idx := range g.Instances {
					if idx == late {
						return true
					}
				}
			}
		}
		return false
	}

	voted := make(map[uint16]bool)
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		msg := decode(d)
		if broadcaster(msg) == late {
			held = append(held, d)
			continue
		}
		sent := len(queue)
		engines[d.to].Handle(d.from, msg)
		for _, out := range queue[sent:] {
			if voted[out.from] || !votesZero(decode(out)) {
				continue
			}
			voted[out.from] = true
			e := engines[out.from]
			e.mu.Lock()
			ones := bits.OnesCount64(e.ones)
			e.mu.Unlock()
			if len(voted) <= replayFaults+1 && ones < replayNodes-replayFaults {
				t.Fatalf("engine %d input 0 to instance %d with %d instances decided 1, want >= %d",
					out.from, late, ones, replayNodes-replayFaults)
			}
		}
	}
	if len(voted) < replayFaults+1 {
		t.Fatalf("%d engines voted 0 on the withheld broadcaster's instance, want >= %d", len(voted), replayFaults+1)
	}

	results := func() [][]byte {
		out := make([][]byte, len(engines))
		for i, e := range engines {
			got := e.Decisions()
			if got == nil {
				t.Fatalf("engine %d has no outcome with nothing left in flight", i)
			}
			out[i] = got
		}
		return out
	}
	// Serials 1..3 are certified by the three delivered proposals; serial 4
	// only by the withheld one.
	want := []byte{1, 1, 1, 0}
	for i, got := range results() {
		if !bytes.Equal(got, want) {
			t.Fatalf("engine %d decided %v, want %v", i, got, want)
		}
	}
	for queue = held; len(queue) > 0; queue = queue[1:] {
		engines[queue[0].to].Handle(queue[0].from, decode(queue[0]))
	}
	for i, got := range results() {
		if !bytes.Equal(got, want) {
			t.Fatalf("engine %d decided %v after the late broadcast delivered, want %v", i, got, want)
		}
	}
}

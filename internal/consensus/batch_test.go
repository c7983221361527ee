package consensus

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"ddemos/internal/wire"
)

// harness wires n Batch drivers together with a direct in-memory mesh,
// optionally mutating or suppressing traffic per sender (Byzantine/crash
// simulation).
type harness struct {
	n, f    int
	batches []*Batch
	mu      sync.Mutex
	queue   []queued
	// silent suppresses all outbound traffic from a node (crash fault).
	silent map[uint16]bool
	// corrupt flips the value of every outbound group from a node.
	corrupt map[uint16]bool
}

type queued struct {
	from uint16
	to   uint16
	msg  *wire.Consensus
}

func newHarness(t *testing.T, n, f int, count uint32, coin Coin) *harness {
	t.Helper()
	h := &harness{n: n, f: f, silent: map[uint16]bool{}, corrupt: map[uint16]bool{}}
	h.batches = make([]*Batch, n)
	for i := 0; i < n; i++ {
		self := uint16(i)
		b, err := NewBatch(n, f, self, count, coin, func(m *wire.Consensus) {
			h.broadcast(self, m)
		})
		if err != nil {
			t.Fatal(err)
		}
		h.batches[i] = b
	}
	return h
}

func (h *harness) broadcast(from uint16, m *wire.Consensus) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.silent[from] {
		return
	}
	msg := m
	if h.corrupt[from] {
		msg = &wire.Consensus{Sender: m.Sender, Groups: make([]wire.ConsensusGroup, len(m.Groups))}
		for i, g := range m.Groups {
			g.Value = 1 - g.Value
			msg.Groups[i] = g
		}
	}
	for to := 0; to < h.n; to++ {
		if uint16(to) == from {
			continue
		}
		h.queue = append(h.queue, queued{from: from, to: uint16(to), msg: msg})
	}
}

// pump delivers queued messages until quiescence.
func (h *harness) pump() {
	for {
		h.mu.Lock()
		if len(h.queue) == 0 {
			h.mu.Unlock()
			return
		}
		q := h.queue[0]
		h.queue = h.queue[1:]
		h.mu.Unlock()
		h.batches[q.to].Handle(q.from, q.msg)
	}
}

func (h *harness) start(t *testing.T, inputs [][]byte) {
	t.Helper()
	for i, b := range h.batches {
		if h.silent[uint16(i)] {
			continue
		}
		if err := b.Start(inputs[i]); err != nil {
			t.Fatal(err)
		}
	}
	h.pump()
}

func (h *harness) results(t *testing.T, i int) []byte {
	t.Helper()
	res := h.batches[i].Decisions()
	if res == nil {
		t.Fatalf("node %d has not decided with nothing in flight", i)
	}
	return res
}

func uniform(n int, count int, v byte) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		row := make([]byte, count)
		for j := range row {
			row[j] = v
		}
		out[i] = row
	}
	return out
}

func TestValidityAllZero(t *testing.T) {
	h := newHarness(t, 4, 1, 10, NewHashCoin([]byte("t")))
	h.start(t, uniform(4, 10, 0))
	for i := 0; i < 4; i++ {
		for inst, v := range h.results(t, i) {
			if v != 0 {
				t.Fatalf("node %d instance %d decided %d, want 0", i, inst, v)
			}
		}
	}
}

func TestValidityAllOne(t *testing.T) {
	h := newHarness(t, 4, 1, 10, NewHashCoin([]byte("t")))
	h.start(t, uniform(4, 10, 1))
	for i := 0; i < 4; i++ {
		for inst, v := range h.results(t, i) {
			if v != 1 {
				t.Fatalf("node %d instance %d decided %d, want 1", i, inst, v)
			}
		}
	}
}

func TestAgreementMixedInputs(t *testing.T) {
	// Node i inputs i%2 per instance; all nodes must agree on something.
	const n, count = 4, 32
	h := newHarness(t, n, 1, count, NewHashCoin([]byte("mixed")))
	inputs := make([][]byte, n)
	for i := range inputs {
		row := make([]byte, count)
		for j := range row {
			row[j] = byte((i + j) % 2)
		}
		inputs[i] = row
	}
	h.start(t, inputs)
	ref := h.results(t, 0)
	for i := 1; i < n; i++ {
		res := h.results(t, i)
		for j := range res {
			if res[j] != ref[j] {
				t.Fatalf("disagreement instance %d: node0=%d node%d=%d", j, ref[j], i, res[j])
			}
		}
	}
}

func TestCrashFaultTolerance(t *testing.T) {
	// One silent node out of 4 (f=1): the rest must still decide.
	const n, count = 4, 16
	h := newHarness(t, n, 1, count, NewHashCoin([]byte("crash")))
	h.silent[3] = true
	inputs := uniform(n, count, 1)
	h.start(t, inputs)
	for i := 0; i < 3; i++ {
		for inst, v := range h.results(t, i) {
			if v != 1 {
				t.Fatalf("node %d instance %d decided %d, want 1", i, inst, v)
			}
		}
	}
}

func TestByzantineValueFlipper(t *testing.T) {
	// A node that flips every value it sends must not break agreement or
	// validity among the honest nodes — here with honest node 3 binding its
	// inputs late, one instance at a time from the last to the first, after
	// the others (who cannot decide without it) have gone quiet.
	const n, count = 4, 16
	h := newHarness(t, n, 1, count, NewHashCoin([]byte("byz")))
	h.corrupt[2] = true
	inputs := uniform(n, count, 1)
	for i, b := range h.batches[:3] {
		if err := b.Start(inputs[i]); err != nil {
			t.Fatal(err)
		}
	}
	h.pump()
	if d := h.batches[0].Decided(); d != 0 {
		t.Fatalf("%d instances decided on two honest inputs", d)
	}
	for j := uint32(count); j > 0; j-- {
		h.batches[3].Input(j-1, 1)
		h.pump()
	}
	for _, i := range []int{0, 1, 3} {
		for inst, v := range h.results(t, i) {
			if v != 1 {
				t.Fatalf("honest node %d instance %d decided %d, want 1 (validity)", i, inst, v)
			}
		}
	}
}

func TestSevenNodesTwoCrashes(t *testing.T) {
	const n, f, count = 7, 2, 8
	h := newHarness(t, n, f, count, NewHashCoin([]byte("seven")))
	h.silent[5] = true
	h.silent[6] = true
	h.start(t, uniform(n, count, 0))
	for i := 0; i < 5; i++ {
		for inst, v := range h.results(t, i) {
			if v != 0 {
				t.Fatalf("node %d instance %d decided %d", i, inst, v)
			}
		}
	}
}

func TestMixedInputsWithByzantine(t *testing.T) {
	const n, f, count = 7, 2, 16
	h := newHarness(t, n, f, count, NewHashCoin([]byte("mixed-byz")))
	h.corrupt[6] = true
	inputs := make([][]byte, n)
	for i := range inputs {
		row := make([]byte, count)
		for j := range row {
			row[j] = byte((i * j) % 2)
		}
		inputs[i] = row
	}
	h.start(t, inputs)
	ref := h.results(t, 0)
	for _, i := range []int{1, 2, 3, 4, 5} {
		res := h.results(t, i)
		for j := range res {
			if res[j] != ref[j] {
				t.Fatalf("disagreement at instance %d between honest nodes", j)
			}
		}
	}
}

func TestLocalCoinTerminates(t *testing.T) {
	const n, count = 4, 8
	h := newHarness(t, n, 1, count, LocalCoin{})
	inputs := make([][]byte, n)
	for i := range inputs {
		row := make([]byte, count)
		for j := range row {
			row[j] = byte((i + j) % 2)
		}
		inputs[i] = row
	}
	h.start(t, inputs)
	// pump until everyone decides (local coin may need several rounds; the
	// harness pump is synchronous so one call suffices for quiescence, but
	// messages triggered by decisions may need further pumping).
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := true
		for _, b := range h.batches {
			if b.Decided() != count {
				done = false
			}
		}
		if done || time.Now().After(deadline) {
			break
		}
		h.pump()
	}
	ref := h.results(t, 0)
	for i := 1; i < n; i++ {
		res := h.results(t, i)
		for j := range res {
			if res[j] != ref[j] {
				t.Fatalf("disagreement instance %d", j)
			}
		}
	}
}

func TestLargeBatch(t *testing.T) {
	// 20k instances, unanimous inputs: exercises the batching path the vote
	// set consensus uses for big elections.
	const n, count = 4, 20000
	h := newHarness(t, n, 1, count, NewHashCoin([]byte("large")))
	h.start(t, uniform(n, count, 1))
	for i := 0; i < n; i++ {
		res := h.results(t, i)
		for inst, v := range res {
			if v != 1 {
				t.Fatalf("node %d instance %d decided %d", i, inst, v)
			}
		}
	}
}

func TestZeroInstances(t *testing.T) {
	b, err := NewBatch(4, 1, 0, 0, LocalCoin{}, func(*wire.Consensus) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(nil); err != nil {
		t.Fatal(err)
	}
	if res := b.Decisions(); res == nil || len(res) != 0 {
		t.Fatalf("res=%v", res)
	}
}

func TestInvalidConfig(t *testing.T) {
	if _, err := NewBatch(3, 1, 0, 1, LocalCoin{}, func(*wire.Consensus) {}); err == nil {
		t.Fatal("n=3f must be rejected")
	}
	if _, err := NewBatch(4, 1, 9, 1, LocalCoin{}, func(*wire.Consensus) {}); err == nil {
		t.Fatal("self out of range must be rejected")
	}
	if _, err := NewBatch(100, 33, 0, 1, LocalCoin{}, func(*wire.Consensus) {}); err == nil {
		t.Fatal("n>64 must be rejected")
	}
}

func TestStartValidation(t *testing.T) {
	b, err := NewBatch(4, 1, 0, 2, LocalCoin{}, func(*wire.Consensus) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start([]byte{1}); err == nil {
		t.Fatal("wrong input length must fail")
	}
	if err := b.Start([]byte{0, 2}); err == nil {
		t.Fatal("non-binary input must fail")
	}
	if err := b.Start([]byte{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Start([]byte{0, 1}); err == nil {
		t.Fatal("double start must fail")
	}
}

func TestHandleIgnoresGarbage(t *testing.T) {
	b, err := NewBatch(4, 1, 0, 4, NewHashCoin([]byte("g")), func(*wire.Consensus) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start([]byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	// Out-of-range sender, instance, value, and absurd round: all ignored,
	// as are frames naming a sender other than the peer they came from (two
	// forged DECIDEs would be f+1).
	forged := []wire.ConsensusGroup{{Step: wire.StepDecide, Value: 1, Instances: []uint32{0}}}
	b.Handle(1, &wire.Consensus{Sender: 2, Groups: forged})
	b.Handle(2, &wire.Consensus{Sender: 1, Groups: forged})
	b.Handle(99, &wire.Consensus{Sender: 99, Groups: []wire.ConsensusGroup{{Step: wire.StepBVal, Round: 1, Value: 0, Instances: []uint32{0}}}})
	b.Handle(1, &wire.Consensus{Sender: 1, Groups: []wire.ConsensusGroup{
		{Step: wire.StepBVal, Round: 1, Value: 7, Instances: []uint32{0}},
		{Step: wire.StepBVal, Round: 1, Value: 0, Instances: []uint32{4000}},
		{Step: wire.StepBVal, Round: 9999, Value: 0, Instances: []uint32{0}},
		{Step: 77, Round: 1, Value: 0, Instances: []uint32{0}},
	}})
	if b.Decided() != 0 {
		t.Fatal("garbage must not cause decisions")
	}
}

func TestHashCoinDeterministic(t *testing.T) {
	c1 := NewHashCoin([]byte("seed"))
	c2 := NewHashCoin([]byte("seed"))
	for i := uint32(0); i < 100; i++ {
		if c1.Flip(i, 1) != c2.Flip(i, 1) {
			t.Fatal("hash coin must be deterministic")
		}
		if v := c1.Flip(i, 1); v > 1 {
			t.Fatal("coin must be binary")
		}
	}
	// Roughly balanced.
	ones := 0
	for i := uint32(0); i < 1000; i++ {
		ones += int(c1.Flip(i, 2))
	}
	if ones < 400 || ones > 600 {
		t.Fatalf("coin is biased: %d/1000 ones", ones)
	}
}

func TestLocalCoinBinary(t *testing.T) {
	var c LocalCoin
	for i := 0; i < 100; i++ {
		if v := c.Flip(0, 0); v > 1 {
			t.Fatal("local coin must be binary")
		}
	}
}

func BenchmarkBatchConsensusUnanimous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := &harness{n: 4, f: 1, silent: map[uint16]bool{}, corrupt: map[uint16]bool{}}
		h.batches = make([]*Batch, 4)
		coin := NewHashCoin([]byte("bench"))
		for j := 0; j < 4; j++ {
			self := uint16(j)
			batch, err := NewBatch(4, 1, self, 1000, coin, func(m *wire.Consensus) {
				h.broadcast(self, m)
			})
			if err != nil {
				b.Fatal(err)
			}
			h.batches[j] = batch
		}
		inputs := uniform(4, 1000, 1)
		for j, bb := range h.batches {
			if err := bb.Start(inputs[j]); err != nil {
				b.Fatal(err)
			}
		}
		h.pump()
		for _, bb := range h.batches {
			if bb.Decided() != 1000 {
				b.Fatal("not all decided")
			}
		}
	}
}

// TestBatchFramesDeterministic: batches fed the same inputs and the same
// deliveries emit the same frames, byte for byte, so a schedule replays
// exactly. The peer frame below makes one flush carry BVAL, AUX and DECIDE
// groups for both values in two rounds.
func TestBatchFramesDeterministic(t *testing.T) {
	const count = 16
	run := func() [][]byte {
		var frames [][]byte
		b, err := NewBatch(4, 1, 0, count, NewHashCoin([]byte("frames")), func(m *wire.Consensus) {
			frames = append(frames, wire.Encode(m))
		})
		if err != nil {
			t.Fatal(err)
		}
		inputs := make([]byte, count)
		for i := range inputs {
			inputs[i] = byte(i % 2)
		}
		if err := b.Start(inputs); err != nil {
			t.Fatal(err)
		}
		all := make([]uint32, count)
		for i := range all {
			all[i] = uint32(i) //nolint:gosec // small
		}
		for from := uint16(1); from <= 2; from++ {
			msg := &wire.Consensus{Sender: from}
			for _, v := range []uint8{0, 1} {
				msg.Groups = append(msg.Groups,
					wire.ConsensusGroup{Step: wire.StepBVal, Round: 1, Value: v, Instances: all},
					wire.ConsensusGroup{Step: wire.StepAux, Round: 1, Value: v, Instances: all},
					wire.ConsensusGroup{Step: wire.StepBVal, Round: 2, Value: v, Instances: all})
			}
			b.Handle(from, msg)
		}
		return frames
	}
	want := run()
	groups := 0
	for _, f := range want {
		m, err := wire.Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		groups = max(groups, len(m.(*wire.Consensus).Groups))
	}
	if groups < 3 {
		t.Fatalf("the largest flush carried %d groups; the test needs several", groups)
	}
	for range 20 {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("a rerun sent %d frames, the first run %d", len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d differs between runs fed the same deliveries", i)
			}
		}
	}
}

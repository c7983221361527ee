package consensus

import (
	"context"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"ddemos/internal/wire"
)

// shuffledHarness delivers messages in adversarially shuffled order: the
// queue is drained from random positions, modelling an asynchronous network
// scheduler. Inputs bound late (Input, one instance at a time) are drawn from
// the same pool, so they land anywhere between the deliveries.
// Agreement/validity must hold under every schedule.
type shuffledHarness struct {
	n, f    int
	batches []*Batch
	mu      sync.Mutex
	queue   []queued
	late    []lateInput
	hooked  [][]int // per node, per instance: OnDecide calls
	rng     *rand.Rand
}

type lateInput struct {
	node int
	idx  uint32
	v    byte
}

func newShuffledHarness(t *testing.T, n, f int, count uint32, coin Coin, seed uint64) *shuffledHarness {
	t.Helper()
	h := &shuffledHarness{n: n, f: f, rng: rand.New(rand.NewPCG(seed, 77))} //nolint:gosec // test
	h.batches = make([]*Batch, n)
	h.hooked = make([][]int, n)
	for i := 0; i < n; i++ {
		self := uint16(i) //nolint:gosec // small
		h.hooked[i] = make([]int, count)
		b, err := NewBatch(n, f, self, count, coin, func(m *wire.Consensus) {
			h.mu.Lock()
			defer h.mu.Unlock()
			for to := 0; to < h.n; to++ {
				if uint16(to) == self { //nolint:gosec // small
					continue
				}
				h.queue = append(h.queue, queued{from: self, to: uint16(to), msg: m}) //nolint:gosec // small
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		b.OnDecide(func(idx uint32, _ byte) { h.hooked[self][idx]++ })
		h.batches[i] = b
	}
	return h
}

// pump delivers queued messages and late inputs in random order until
// quiescence.
func (h *shuffledHarness) pump() {
	for {
		h.mu.Lock()
		if len(h.queue)+len(h.late) == 0 {
			h.mu.Unlock()
			return
		}
		i := h.rng.IntN(len(h.queue) + len(h.late))
		if i >= len(h.queue) {
			i -= len(h.queue)
			in := h.late[i]
			h.late[i] = h.late[len(h.late)-1]
			h.late = h.late[:len(h.late)-1]
			h.mu.Unlock()
			h.batches[in.node].Input(in.idx, in.v)
			continue
		}
		q := h.queue[i]
		h.queue[i] = h.queue[len(h.queue)-1]
		h.queue = h.queue[:len(h.queue)-1]
		h.mu.Unlock()
		h.batches[q.to].Handle(q.from, q.msg)
	}
}

func TestPropertyAgreementUnderRandomSchedules(t *testing.T) {
	// 20 random schedules × random inputs: all honest nodes must agree on
	// every instance, and unanimous instances must decide the common input.
	// Node 0 binds all its inputs up front; the others bind theirs late, one
	// instance at a time at schedule-chosen points, and on each instance at
	// most one of them (f = 1) never does — it must adopt f+1 DECIDEs.
	const n, f, count = 4, 1, 12
	for seed := uint64(0); seed < 20; seed++ {
		coin := NewHashCoin([]byte{byte(seed)})
		h := newShuffledHarness(t, n, f, count, coin, seed)
		inRng := rand.New(rand.NewPCG(seed, 99)) //nolint:gosec // test
		inputs := make([][]byte, n)
		for i := range inputs {
			row := make([]byte, count)
			for j := range row {
				row[j] = byte(inRng.IntN(2))
			}
			inputs[i] = row
		}
		never := make([]int, count) // per instance: the node without input, 0 = none
		for j := range never {
			never[j] = inRng.IntN(n)
			for i := 1; i < n; i++ {
				if i != never[j] {
					h.late = append(h.late, lateInput{node: i, idx: uint32(j), v: inputs[i][j]}) //nolint:gosec // small
				}
			}
		}
		if err := h.batches[0].Start(inputs[0]); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			h.pump()
			done := true
			for _, b := range h.batches {
				if b.Decided() != count {
					done = false
				}
			}
			if done {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: consensus did not terminate", seed)
			}
		}
		for i, calls := range h.hooked {
			for j, c := range calls {
				if c != 1 {
					t.Fatalf("seed %d: node %d was told of instance %d's decision %d times", seed, i, j, c)
				}
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		ref, err := h.batches[0].Results(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < n; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			res, err := h.batches[i].Results(ctx)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			for j := range res {
				if res[j] != ref[j] {
					t.Fatalf("seed %d instance %d: disagreement", seed, j)
				}
			}
		}
		// Validity on instances whose bound inputs were unanimous.
		for j := 0; j < count; j++ {
			allSame := true
			for i := 1; i < n; i++ {
				if i != never[j] && inputs[i][j] != inputs[0][j] {
					allSame = false
				}
			}
			if allSame && ref[j] != inputs[0][j] {
				t.Fatalf("seed %d instance %d: validity violated (all input %d, decided %d)",
					seed, j, inputs[0][j], ref[j])
			}
		}
	}
}

func TestPropertyAgreementWithMessageLoss(t *testing.T) {
	// Drop 20% of messages on first delivery attempt but retry later —
	// modelling retransmission. (The protocol itself assumes eventual
	// delivery, which the VC layer realizes by multicast retries.)
	const n, f, count = 4, 1, 8
	coin := NewHashCoin([]byte("loss"))
	h := newShuffledHarness(t, n, f, count, coin, 5)
	inputs := uniform(n, count, 1)
	for i, b := range h.batches[:n-1] {
		if err := b.Start(inputs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// The last node binds its inputs late, in schedule-chosen order, and
	// never binds instance 0.
	for j := uint32(1); j < count; j++ {
		h.late = append(h.late, lateInput{node: n - 1, idx: j, v: 1})
	}
	// Randomized pump already reorders arbitrarily; duplicate a sample of
	// messages to model retransmission-induced duplication as well.
	h.mu.Lock()
	dup := make([]queued, 0, len(h.queue)/5)
	for i, q := range h.queue {
		if i%5 == 0 {
			dup = append(dup, q)
		}
	}
	h.queue = append(h.queue, dup...)
	h.mu.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for {
		h.pump()
		done := true
		for _, b := range h.batches {
			if b.Decided() != count {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("did not terminate")
		}
	}
	for i, b := range h.batches {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		res, err := b.Results(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range res {
			if v != 1 {
				t.Fatalf("node %d instance %d decided %d (validity under duplication)", i, j, v)
			}
		}
	}
}

// Package smr implements the ablation baseline the paper argues against in
// §II: vote collection through state-machine-replication-style total
// ordering, where every vote must be sequenced by a Byzantine consensus
// instance before the client is acknowledged. D-DEMOS instead validates
// votes independently per node and only coordinates per-ballot uniqueness,
// so comparing the two quantifies the cost of total ordering.
//
// The baseline is deliberately generous to SMR: there is no leader, no view
// change and no request forwarding — each "replica" directly runs one
// binary consensus instance per request with unanimous inputs, which is a
// lower bound on what any BFT-total-order protocol must pay.
package smr

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"ddemos/internal/consensus"
	"ddemos/internal/transport"
	"ddemos/internal/wire"
)

// Node is one ordered-collection replica.
type Node struct {
	id   uint16
	n, f int
	base transport.NodeID // network id of replica 0
	ep   transport.Endpoint
	coin consensus.Coin

	mu      sync.Mutex
	slots   map[uint64]*slotRun
	done    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
}

// NewNode creates a replica. Replica i must own network id base+i, so a set
// of sequencers can share a network with other node families.
func NewNode(id uint16, n, f int, base transport.NodeID, ep transport.Endpoint, coin consensus.Coin) *Node {
	return &Node{
		id:    id,
		n:     n,
		f:     f,
		base:  base,
		ep:    ep,
		coin:  coin,
		slots: make(map[uint64]*slotRun),
		done:  make(chan struct{}),
	}
}

// Start launches the message pump.
func (s *Node) Start() {
	s.wg.Add(1)
	go s.pump()
}

// Stop shuts the replica down.
func (s *Node) Stop() {
	s.stopped.Do(func() {
		close(s.done)
		_ = s.ep.Close()
	})
	s.wg.Wait()
}

// Order sequences one request (identified by slot, unique per request)
// through consensus, blocking until the slot is decided — the per-request
// cost every SMR-based design pays before acknowledging a vote.
func (s *Node) Order(ctx context.Context, slot uint64) error {
	run, err := s.slot(slot)
	if err != nil {
		return err
	}
	select {
	case <-run.decided:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("smr: ordering slot %d: %w", slot, ctx.Err())
	}
}

// slotRun is one slot's consensus, with a channel closed when it decides.
type slotRun struct {
	b       *consensus.Batch
	decided chan struct{}
}

// slot returns (creating and starting if needed) the consensus for a slot.
func (s *Node) slot(slot uint64) (*slotRun, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if run, ok := s.slots[slot]; ok {
		return run, nil
	}
	peers := make([]transport.NodeID, s.n)
	for i := range peers {
		peers[i] = s.base + transport.NodeID(i) //nolint:gosec // small
	}
	b, err := consensus.NewBatch(s.n, s.f, s.id, 1, s.coin, func(m *wire.Consensus) {
		frame := make([]byte, 8, 8+64)
		binary.BigEndian.PutUint64(frame, slot)
		frame = append(frame, wire.Encode(m)...)
		_ = transport.Multicast(s.ep, peers, frame)
	})
	if err != nil {
		return nil, err
	}
	run := &slotRun{b: b, decided: make(chan struct{})}
	b.OnDecide(func(uint32, byte) { close(run.decided) }) // one instance: called once
	s.slots[slot] = run
	if err := b.Start([]byte{1}); err != nil {
		return nil, err
	}
	return run, nil
}

func (s *Node) pump() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case env, ok := <-s.ep.Recv():
			if !ok {
				return
			}
			if len(env.Payload) < 9 {
				continue
			}
			slot := binary.BigEndian.Uint64(env.Payload[:8])
			msg, err := wire.Decode(env.Payload[8:])
			if err != nil {
				continue
			}
			cm, ok := msg.(*wire.Consensus)
			if !ok {
				continue
			}
			if env.From < s.base || int(env.From-s.base) >= s.n {
				continue
			}
			run, err := s.slot(slot)
			if err != nil {
				continue
			}
			run.b.Handle(uint16(env.From-s.base), cm) //nolint:gosec // small
		}
	}
}

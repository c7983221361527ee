package vc

import (
	"fmt"

	"ddemos/internal/acs"
	"ddemos/internal/consensus"
	"ddemos/internal/wire"
)

// ConsensusEngine decides, per ballot, whether it belongs in the agreed vote
// set. It is the replaceable core of VoteSetConsensus: the surrounding
// protocol — ANNOUNCE-SET dispersal, the restart-recovery channel
// (dup-ANNOUNCE echo, VSC-FINAL adoption), RECOVER for missing codes, and the
// journaled result — is engine-agnostic and lives in vsc.go.
//
// Lifecycle: the engine is constructed when consensus is installed (so it
// can absorb traffic from peers that raced ahead), Start is called once the
// announce quorum is in, and Decisions hands back the decision vector — one
// 0/1 byte per ballot, index serial-1 — once it is complete. All honest
// nodes' engines must return identical vectors. Handle receives every
// engine-kind frame routed to the node; engines ignore kinds they do not
// speak. No method blocks: the close state reads Decisions after every
// Start and Handle.
type ConsensusEngine interface {
	// Start begins agreement. proposal is this node's certified vote set in
	// serial order, encoded once as its own broadcast (sender and broadcaster
	// this node); inputs is the per-ballot 0/1 vector derived from the same
	// snapshot. Engines use whichever representation their protocol binds
	// to.
	Start(proposal *wire.RBCEcho, inputs []byte) error
	// Handle processes one inbound engine frame from peer `from`.
	Handle(from uint16, msg wire.Message)
	// Decisions returns the decision vector once every ballot is decided,
	// and nil before. The caller must not modify it.
	Decisions() []byte
}

// EngineConfig is everything a consensus engine may depend on, injected so
// engines stay free of node internals (and of this package: internal/acs
// satisfies ConsensusEngine without importing vc).
type EngineConfig struct {
	N, F    int    // cluster size and fault bound
	Self    uint16 // this node's index
	Ballots uint32 // ballot pool size

	Coin consensus.Coin // shared deterministic coin

	// Send multicasts an encoded frame to the other N-1 nodes; SendTo
	// unicasts one to node `to`.
	Send   func(frame []byte)
	SendTo func(to uint16, frame []byte)
	// Accept judges a batch of announce entries — verdict i reports whether
	// entries[i] carries a well-formed uniqueness certificate, identically at
	// every honest node — and installs the accepted ones into the node and
	// its journal.
	Accept func(entries []wire.AnnounceEntry) []bool
}

// EngineFactory builds a ConsensusEngine for one election run.
type EngineFactory func(cfg EngineConfig) (ConsensusEngine, error)

// ParseEngine resolves a -consensus flag value to a factory. The empty
// string selects the paper's interlocked protocol.
func ParseEngine(name string) (EngineFactory, error) {
	switch name {
	case "", "interlocked":
		return InterlockedEngine, nil
	case "acs":
		return ACSEngine, nil
	default:
		return nil, fmt.Errorf("vc: unknown consensus engine %q (want interlocked or acs)", name)
	}
}

// InterlockedEngine is the paper's §III-E protocol: one binary-consensus
// instance per ballot, batched (internal/consensus), seeded by the ANNOUNCE-SET
// dispersal the engine-agnostic layer already ran.
func InterlockedEngine(cfg EngineConfig) (ConsensusEngine, error) {
	batch, err := consensus.NewBatch(cfg.N, cfg.F, cfg.Self, cfg.Ballots, cfg.Coin, func(m *wire.Consensus) {
		cfg.Send(wire.Encode(m))
	})
	if err != nil {
		return nil, err
	}
	return &interlockedEngine{batch: batch}, nil
}

// ACSEngine is the BKR Agreement-on-Common-Subset engine (internal/acs):
// reliable broadcast of each node's candidate set — by digest, so a node
// that proposes the same set never receives it — plus one binary-agreement
// instance per broadcaster.
func ACSEngine(cfg EngineConfig) (ConsensusEngine, error) {
	return acs.New(acs.Config{
		N: cfg.N, F: cfg.F, Self: cfg.Self, Ballots: cfg.Ballots,
		Coin: cfg.Coin, Send: cfg.Send, SendTo: cfg.SendTo, Accept: cfg.Accept,
	})
}

// interlockedEngine adapts consensus.Batch to the engine interface.
type interlockedEngine struct {
	batch *consensus.Batch
}

// Start implements ConsensusEngine: the proposal is unused — the batch
// binds to the per-ballot inputs vector.
func (e *interlockedEngine) Start(_ *wire.RBCEcho, inputs []byte) error {
	return e.batch.Start(inputs)
}

// Handle implements ConsensusEngine. The batch takes traffic from
// construction onward, so peers that reached their announce quorum first and
// started early are absorbed into its (bounded) round state.
func (e *interlockedEngine) Handle(from uint16, msg wire.Message) {
	if m, ok := msg.(*wire.Consensus); ok {
		e.batch.Handle(from, m)
	}
}

// Decisions implements ConsensusEngine.
func (e *interlockedEngine) Decisions() []byte { return e.batch.Decisions() }

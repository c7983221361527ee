// Package core wires all subsystems into a runnable election: Nv Vote
// Collector nodes over the (simulated or real) network, Nb Bulletin Board
// replicas, Nt trustees, and the phase sequencing of the full pipeline —
// vote collection, vote-set consensus, push-to-BB with encrypted tally, and
// result publication (the four phases of the paper's Fig. 5c).
//
// The cluster is also the fault-injection surface: any VC node can be
// crashed or made Byzantine, any BB node can lie to readers, any trustee
// can post garbage — each exercising one threshold of the threat model
// (§III-C).
package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"ddemos/internal/bb"
	"ddemos/internal/clock"
	"ddemos/internal/consensus"
	"ddemos/internal/ea"
	"ddemos/internal/journal"
	"ddemos/internal/sim"
	"ddemos/internal/store"
	"ddemos/internal/transport"
	"ddemos/internal/trustee"
	"ddemos/internal/vc"
)

// Options configures cluster construction.
type Options struct {
	// Sim, when set, runs the whole cluster in the driver's virtual time:
	// the Memnet delivers on the driver's event queue, batch-flush windows
	// are driver events, and the election clock is the driver's. The
	// caller runs the driver (sim.Driver.Spin or Elapse) alongside the
	// test; ClosePolls jumps the driver clock past the voting end.
	Sim *sim.Driver
	// Network defaults to a fresh LAN-profile Memnet (on the Sim driver's
	// timers when Sim is set).
	Network *transport.Memnet
	// LinkProfile overrides the default profile of a fresh network
	// (ignored when Network is provided).
	LinkProfile *transport.LinkProfile
	// Clock defaults to the Sim driver's clock when Sim is set, otherwise
	// to a fake clock set inside the voting window, letting the caller
	// drive phases; pass clock.Real{} for wall-clock elections.
	Clock clock.Clock
	// Authenticated does nothing. Inter-VC links are always authenticated
	// (transport.NewAuthenticated, under the EA-dealt link keys); the field
	// stays only because the bench/ harness sets it.
	Authenticated bool
	// BatchWindow does nothing. Inter-VC links are always batched
	// (transport.NewBatcher over the authenticated link); the field stays
	// only because the bench/ harness sets it.
	BatchWindow time.Duration
	// VCByzantine assigns fault modes to VC nodes by index.
	VCByzantine map[int]vc.Byzantine
	// LyingBB marks BB nodes (by index) that serve corrupted reads.
	LyingBB map[int]bool
	// ByzantineTrustees marks trustees (by index) that post garbage shares.
	ByzantineTrustees map[int]trustee.Byzantine
	// Stores optionally supplies a custom ballot store per VC node index
	// (e.g. the segmented store for the Fig. 5a experiment).
	Stores map[int]store.Store
	// DataDir, when set, gives every VC node a durable runtime-state
	// journal (WAL lanes + snapshots) under <DataDir>/vc-<i> and every BB node
	// one under <DataDir>/bb-<i>, recovered at construction — the paper's
	// crash-and-rejoin deployment property. RestartVC and RestartBB
	// relaunch nodes from them in place.
	DataDir string
	// Fsync makes journaled nodes sync before every ack instead of on the
	// batched group-commit cadence.
	Fsync bool
	// JournalPool is the number of WAL lanes each node's journal hashes
	// its records over (by ballot serial on a VC), each with its own
	// group-commit fsync loop and copy-on-write snapshots — the
	// runtime-state analogue of the paper's Fig. 5a connection-pool sweep.
	// <= 1 means one lane.
	JournalPool int
	// JournalPolicy selects the journal-append-error ack policy
	// (journal.PolicyAvailable or journal.PolicyStrict).
	JournalPolicy journal.AckPolicy
	// Consensus selects the vote-set-consensus engine for every VC node:
	// "interlocked" (default, the paper's per-ballot protocol) or "acs"
	// (BKR common-subset; see vc.ParseEngine).
	Consensus string
}

// Cluster is a fully wired in-process election deployment.
type Cluster struct {
	Data     *ea.ElectionData
	Net      *transport.Memnet
	Clock    clock.Clock
	VCs      []*vc.Node
	BBs      []*bb.Node
	Trustees []*trustee.Trustee
	Reader   *bb.Reader

	fake *clock.Fake
	sim  *sim.Driver
	opts Options // retained for in-place node restarts

	// vcMu guards VCs against in-place restarts swapping entries. Code
	// paths that never run concurrently with RestartVC (benchmark
	// workloads, phase drivers) may read the slice directly; anything that
	// can race a restart goes through VC(i).
	vcMu sync.RWMutex
	// bbMu plays the same role for BBs against RestartBB. The Reader is
	// built over forwarding handles (BB(i) at read time), so it always
	// reaches the current incarnation without rebuilding.
	bbMu sync.RWMutex

	// PhaseDurations records the measured wall time of each completed
	// phase, keyed by phase name (Fig. 5c).
	phaseMu        sync.Mutex
	PhaseDurations map[string]time.Duration
}

// Phase names for PhaseDurations (the series of Fig. 5c).
const (
	PhaseVoteCollection   = "vote collection"
	PhaseVoteSetConsensus = "vote set consensus"
	PhasePushAndTally     = "push to BB and encrypted tally"
	PhasePublishResult    = "publish result"
)

// NewCluster boots all components from setup data.
func NewCluster(data *ea.ElectionData, opts Options) (*Cluster, error) {
	if data == nil {
		return nil, errors.New("core: missing election data")
	}
	c := &Cluster{
		Data:           data,
		PhaseDurations: make(map[string]time.Duration),
	}
	c.sim = opts.Sim
	c.Net = opts.Network
	if c.Net == nil {
		lp := transport.LANProfile
		if opts.LinkProfile != nil {
			lp = *opts.LinkProfile
		}
		if c.sim != nil {
			c.Net = transport.NewMemnetWithTimers(lp, c.sim)
		} else {
			c.Net = transport.NewMemnet(lp)
		}
	}
	c.Clock = opts.Clock
	if c.Clock == nil {
		if c.sim != nil {
			c.Clock = c.sim
		} else {
			fake := clock.NewFake(data.Manifest.VotingStart.Add(time.Minute))
			c.Clock = fake
			c.fake = fake
		}
	} else if f, ok := c.Clock.(*clock.Fake); ok {
		c.fake = f
	}

	// VC nodes.
	man := data.Manifest
	c.opts = opts
	c.VCs = make([]*vc.Node, man.NumVC)
	for i := 0; i < man.NumVC; i++ {
		node, err := c.buildVC(i)
		if err != nil {
			return nil, err
		}
		c.VCs[i] = node
	}

	// BB nodes (skipped in VC-only setups).
	if data.BB != nil {
		for i := 0; i < man.NumBB; i++ {
			node, err := c.buildBB(i)
			if err != nil {
				return nil, err
			}
			c.BBs = append(c.BBs, node)
		}
		// The Reader holds forwarding handles, not node pointers, so a
		// majority read started after RestartBB reaches the recovered
		// incarnation instead of the closed one.
		apis := make([]bb.API, len(c.BBs))
		for i := range c.BBs {
			apis[i] = bb.ReadFunc(func(kind bb.Kind) ([]byte, error) { return c.BB(i).Read(kind) })
		}
		c.Reader = bb.NewReader(apis)
		for i := 0; i < man.NumTrustees; i++ {
			tr, err := trustee.New(data.Trustees[i])
			if err != nil {
				return nil, fmt.Errorf("core: building trustee %d: %w", i, err)
			}
			if mode, ok := opts.ByzantineTrustees[i]; ok {
				tr.SetByzantine(mode)
			}
			c.Trustees = append(c.Trustees, tr)
		}
	}
	return c, nil
}

// buildVC opens VC node i through vc.Open, the call ddemos-vc makes, on
// the node's Memnet endpoint — shared by construction and in-place restart.
func (c *Cluster) buildVC(i int) (*vc.Node, error) {
	data, opts := c.Data, c.opts
	engine, err := vc.ParseEngine(opts.Consensus)
	if err != nil {
		return nil, err
	}
	node, err := vc.Open(vc.Config{
		Init:      data.VC[i],
		Store:     opts.Stores[i],
		Endpoint:  c.Net.Endpoint(transport.NodeID(i)), //nolint:gosec // <=64
		Clock:     c.Clock,
		Coin:      consensus.NewHashCoin([]byte(data.Manifest.ElectionID)),
		Engine:    engine,
		Byzantine: opts.VCByzantine[i],
	}, opts.dataDir("vc", i), opts.journalOptions(), nil)
	if err != nil {
		return nil, fmt.Errorf("core: vc %d: %w", i, err)
	}
	return node, nil
}

// dataDir is node <kind>-<i>'s journal directory, empty without DataDir.
func (o Options) dataDir(kind string, i int) string {
	if o.DataDir == "" {
		return ""
	}
	return filepath.Join(o.DataDir, fmt.Sprintf("%s-%d", kind, i))
}

// journalOptions is the journal tuning every journaled node opens with.
func (o Options) journalOptions() journal.Options {
	return journal.Options{Fsync: o.Fsync, Pool: o.JournalPool, Policy: o.JournalPolicy}
}

// buildBB opens BB node i through bb.Open, the call ddemos-bb makes —
// shared by construction and in-place restart.
func (c *Cluster) buildBB(i int) (*bb.Node, error) {
	node, err := bb.Open(c.Data.BB, c.opts.dataDir("bb", i), c.opts.journalOptions())
	if err != nil {
		return nil, fmt.Errorf("core: bb %d: %w", i, err)
	}
	node.Lying = c.opts.LyingBB[i]
	return node, nil
}

// VC returns the current incarnation of VC node i (restarts swap it).
func (c *Cluster) VC(i int) *vc.Node {
	c.vcMu.RLock()
	defer c.vcMu.RUnlock()
	return c.VCs[i]
}

// BB returns the current incarnation of BB node i (restarts swap it).
func (c *Cluster) BB(i int) *bb.Node {
	c.bbMu.RLock()
	defer c.bbMu.RUnlock()
	return c.BBs[i]
}

// bbSnapshot copies the current BB incarnations for iteration.
func (c *Cluster) bbSnapshot() []*bb.Node {
	c.bbMu.RLock()
	defer c.bbMu.RUnlock()
	return append([]*bb.Node(nil), c.BBs...)
}

// Boards returns the current BB incarnations as the submitters bb.Push and
// trustee.PublishTo write to.
func (c *Cluster) Boards() []bb.Submitter {
	nodes := c.bbSnapshot()
	boards := make([]bb.Submitter, len(nodes))
	for i, n := range nodes {
		boards[i] = n
	}
	return boards
}

// Stop shuts everything down.
func (c *Cluster) Stop() {
	c.vcMu.RLock()
	nodes := append([]*vc.Node(nil), c.VCs...)
	c.vcMu.RUnlock()
	for _, n := range nodes {
		n.Stop()
	}
	for _, n := range c.bbSnapshot() {
		n.Close()
	}
	_ = c.Net.Close()
}

// CrashVC isolates a VC node from the network (crash fault).
func (c *Cluster) CrashVC(index int) {
	c.Net.Isolate(transport.NodeID(index), true) //nolint:gosec // <=64
}

// RestoreVC reconnects a previously crashed VC node.
func (c *Cluster) RestoreVC(index int) {
	c.Net.Isolate(transport.NodeID(index), false) //nolint:gosec // <=64
}

// StopVC hard-stops a VC node: goroutines halted, volatile state dropped —
// process death, as opposed to CrashVC's network isolation. With DataDir
// set, RestartVC brings it back from its journal.
func (c *Cluster) StopVC(index int) {
	c.VC(index).Stop()
}

// RestartVC relaunches a (typically stopped) VC node in place: a fresh
// incarnation on the same network identity, its runtime ballot state
// recovered from the node's WAL + snapshot. Without a DataDir the node
// comes back empty — the paper's permanent-crash regime.
func (c *Cluster) RestartVC(index int) error {
	c.VC(index).Stop() // idempotent if already stopped
	node, err := c.buildVC(index)
	if err != nil {
		return err
	}
	c.vcMu.Lock()
	c.VCs[index] = node
	c.vcMu.Unlock()
	return nil
}

// StopBB hard-stops a BB node: its combine worker halted, journal closed,
// volatile state dropped — process death for the replicated service. With
// DataDir set, RestartBB brings it back from its journal.
func (c *Cluster) StopBB(index int) {
	c.BB(index).Close()
}

// RestartBB relaunches a (typically stopped) BB node in place: a fresh
// incarnation recovered from <DataDir>/bb-<i>'s snapshot + WAL, with the
// combine worker re-kicked if the replayed posts already hold a publishable
// subset. Without a DataDir the node comes back empty and must be re-fed.
// The Reader's forwarding handle picks up the new incarnation immediately.
func (c *Cluster) RestartBB(index int) error {
	c.BB(index).Close() // idempotent if already stopped
	node, err := c.buildBB(index)
	if err != nil {
		return err
	}
	c.bbMu.Lock()
	c.BBs[index] = node
	c.bbMu.Unlock()
	return nil
}

// BBFaults returns the scenario fault surface addressing BB nodes, so
// sim-driven schedules can kill and recover replicas of the bulletin board
// the way the Cluster itself exposes VC faults. BB nodes never talk to each
// other (the paper's no-cooperation replication model), so Partition is a
// no-op, and Crash/Restore degrade to stop/restart — a BB replica has no
// network identity to isolate in-process.
func (c *Cluster) BBFaults() *BBFaultSurface { return &BBFaultSurface{c: c} }

// BBFaultSurface implements sim.Surface and sim.Restarter over BB indices.
type BBFaultSurface struct {
	c *Cluster
}

// Crash implements sim.Surface; for BBs it is a hard stop.
func (s *BBFaultSurface) Crash(index int) { s.c.StopBB(index) }

// Restore implements sim.Surface; for BBs it is a journal recovery.
func (s *BBFaultSurface) Restore(index int) { _ = s.c.RestartBB(index) }

// Partition implements sim.Surface; BB nodes share no channels to cut.
func (s *BBFaultSurface) Partition(a, b int, on bool) {}

// StopNode implements sim.Restarter.
func (s *BBFaultSurface) StopNode(index int) { s.c.StopBB(index) }

// RestartNode implements sim.Restarter; a failed restart leaves the node
// stopped (the scenario then observes a permanent crash).
func (s *BBFaultSurface) RestartNode(index int) { _ = s.c.RestartBB(index) }

// Crash implements sim.Surface (scenario-driven fault schedules).
func (c *Cluster) Crash(index int) { c.CrashVC(index) }

// Restore implements sim.Surface.
func (c *Cluster) Restore(index int) { c.RestoreVC(index) }

// StopNode implements sim.Restarter.
func (c *Cluster) StopNode(index int) { c.StopVC(index) }

// RestartNode implements sim.Restarter; a failed restart leaves the node
// stopped (the scenario then observes a permanent crash).
func (c *Cluster) RestartNode(index int) { _ = c.RestartVC(index) }

// Partition implements sim.Surface: block (or heal) traffic between two VC
// nodes.
func (c *Cluster) Partition(a, b int, on bool) {
	c.Net.Partition(transport.NodeID(a), transport.NodeID(b), on) //nolint:gosec // <=64
}

// ClosePolls advances the election clock past the voting end: the sim
// driver's clock in virtual-time runs, the fake clock otherwise (no-op with
// a real clock — callers then wait for the real end time).
func (c *Cluster) ClosePolls() {
	end := c.Data.Manifest.VotingEnd.Add(time.Second)
	switch {
	case c.sim != nil:
		c.sim.JumpTo(end)
	case c.fake != nil:
		c.fake.Set(end)
	}
}

// recordPhase stores a phase duration.
func (c *Cluster) recordPhase(name string, d time.Duration) {
	c.phaseMu.Lock()
	defer c.phaseMu.Unlock()
	c.PhaseDurations[name] = d
}

// RunVoteSetConsensus closes the polls and drives vote-set consensus on all
// non-skipped VC nodes concurrently, returning each node's agreed set
// (identical across honest nodes, per the consensus guarantee).
func (c *Cluster) RunVoteSetConsensus(ctx context.Context, skip map[int]bool) (map[int][]vc.VotedBallot, error) {
	c.ClosePolls()
	start := time.Now()
	type res struct {
		set []vc.VotedBallot
		err error
	}
	c.vcMu.RLock()
	vcs := append([]*vc.Node(nil), c.VCs...)
	c.vcMu.RUnlock()
	results := make([]res, len(vcs))
	var wg sync.WaitGroup
	for i, n := range vcs {
		if skip[i] {
			continue
		}
		wg.Add(1)
		go func(i int, n *vc.Node) {
			defer wg.Done()
			set, err := n.VoteSetConsensus(ctx)
			results[i] = res{set, err}
		}(i, n)
	}
	wg.Wait()
	c.recordPhase(PhaseVoteSetConsensus, time.Since(start))
	sets := make(map[int][]vc.VotedBallot, len(vcs))
	var firstErr error
	for i := range results {
		if skip[i] {
			continue
		}
		if results[i].err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: vc %d consensus: %w", i, results[i].err)
			}
			continue
		}
		sets[i] = results[i].set
	}
	if len(sets) == 0 {
		if firstErr == nil {
			firstErr = errors.New("core: no vc node ran consensus")
		}
		return nil, firstErr
	}
	return sets, nil
}

// PushToBB has every non-skipped VC node push its final vote set and msk
// share to every BB node through bb.Push, the call ddemos-vc makes; the
// phase ends when every BB node has published the cast data (encrypted
// tally available).
func (c *Cluster) PushToBB(sets map[int][]vc.VotedBallot) error {
	if len(c.BBs) == 0 {
		return errors.New("core: cluster has no BB nodes")
	}
	start := time.Now()
	c.vcMu.RLock()
	vcs := append([]*vc.Node(nil), c.VCs...)
	c.vcMu.RUnlock()
	boards := c.Boards()
	for i, n := range vcs {
		set, ok := sets[i]
		if !ok {
			continue
		}
		if err := errors.Join(bb.Push(n, set, boards)...); err != nil {
			return fmt.Errorf("core: vc %d pushing to the board: %w", i, err)
		}
	}
	for i, bnode := range c.bbSnapshot() {
		if _, err := bnode.Cast(); err != nil {
			return fmt.Errorf("core: bb %d did not publish cast data: %w", i, err)
		}
	}
	c.recordPhase(PhasePushAndTally, time.Since(start))
	return nil
}

// RunTrustees has every trustee publish through trustee.PublishTo, the call
// ddemos-trustee makes, then waits for the BB nodes to publish the combined
// result.
func (c *Cluster) RunTrustees() error {
	start := time.Now()
	boards := c.Boards()
	var wg sync.WaitGroup
	errs := make([]error, len(c.Trustees))
	for i, tr := range c.Trustees {
		wg.Add(1)
		go func(i int, tr *trustee.Trustee) {
			defer wg.Done()
			refusals, err := tr.PublishTo(c.Reader, boards)
			errs[i] = errors.Join(append(refusals, err)...)
		}(i, tr)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("core: trustee %d: %w", i, err)
		}
	}
	// Combination runs in a background worker per BB node, so submission
	// returning does not mean the result exists yet; wait for each honest
	// node to publish (bounded, in case a Byzantine trustee mix leaves a
	// node without a valid subset).
	waitCtx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	for i := range boards {
		// Re-resolve the slot at wait time: a replica restarted while the
		// trustees were posting is awaited on its recovered incarnation, not
		// the closed one (whose result channel would never fire).
		bnode := c.BB(i)
		if bnode.Lying {
			continue
		}
		if _, err := bnode.WaitResult(waitCtx); err != nil {
			return fmt.Errorf("core: bb %d did not publish a result: %w", i, err)
		}
	}
	c.recordPhase(PhasePublishResult, time.Since(start))
	return nil
}

// RunPipeline drives the three post-election phases after votes were cast:
// vote-set consensus, push to BB, trustee tally. Returns the final result
// read by majority.
func (c *Cluster) RunPipeline(ctx context.Context) (*bb.Result, error) {
	sets, err := c.RunVoteSetConsensus(ctx, nil)
	if err != nil {
		return nil, err
	}
	if err := c.PushToBB(sets); err != nil {
		return nil, err
	}
	if err := c.RunTrustees(); err != nil {
		return nil, err
	}
	return c.Reader.Result()
}

// RecordVoteCollection stores the measured duration of the vote-collection
// phase (driven by the caller, who controls the client workload).
func (c *Cluster) RecordVoteCollection(d time.Duration) {
	c.recordPhase(PhaseVoteCollection, d)
}

// Phases returns a copy of the recorded phase durations.
func (c *Cluster) Phases() map[string]time.Duration {
	c.phaseMu.Lock()
	defer c.phaseMu.Unlock()
	out := make(map[string]time.Duration, len(c.PhaseDurations))
	for k, v := range c.PhaseDurations {
		out[k] = v
	}
	return out
}

package vc

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"ddemos/internal/ballot"
	"ddemos/internal/clock"
	"ddemos/internal/ea"
	"ddemos/internal/journal"
	"ddemos/internal/sim"
	"ddemos/internal/transport"
)

// newClusterStack builds a VC cluster whose endpoints are wrapped by stack
// (per node index), over a Memnet in the sim driver's virtual time — the
// harness for the batched-pipeline and fault-injection tests. Every timer
// in the cluster (link latency and jitter, batch-flush windows, vote
// deadlines via cluster.drv.WithTimeout) lives on the driver's event queue,
// so fault schedules replay identically from the seed and nothing depends
// on wall-clock scheduling under load.
func newClusterStack(t *testing.T, numBallots, numVC int, lp transport.LinkProfile,
	stack func(i int, data *ea.ElectionData, ep transport.Endpoint, tm clock.Timers) transport.Endpoint) *cluster {
	return newSimClusterStack(t, 1, nil, numBallots, numVC, lp, stack)
}

// newSimClusterStack is newClusterStack with an explicit seed and Byzantine
// assignment (scenario sweeps build many of these).
func newSimClusterStack(t *testing.T, seed uint64, byz map[int]Byzantine, numBallots, numVC int,
	lp transport.LinkProfile,
	stack func(i int, data *ea.ElectionData, ep transport.Endpoint, tm clock.Timers) transport.Endpoint) *cluster {
	return newSimCluster(t, seed, byz, numBallots, numVC, lp, stack, false)
}

// newSimCluster additionally gives every node a journal directory when
// journaled is set, enabling in-place crash-restart (sim.Restarter).
func newSimCluster(t *testing.T, seed uint64, byz map[int]Byzantine, numBallots, numVC int,
	lp transport.LinkProfile,
	stack func(i int, data *ea.ElectionData, ep transport.Endpoint, tm clock.Timers) transport.Endpoint,
	journaled bool) *cluster {
	t.Helper()
	var jopts journal.Options
	if !journaled {
		return newSimClusterJ(t, seed, byz, numBallots, numVC, lp, stack, nil, jopts)
	}
	return newSimClusterJ(t, seed, byz, numBallots, numVC, lp, stack, journalDirs(t, numVC), jopts)
}

// newSimClusterJ is the journal-explicit constructor: per-node journal
// directories (nil = memory-only cluster, "" = memory-only node) and the
// journal engine options every (re)start uses — the lever the backend
// sweeps and the pooled-engine scenarios turn.
func newSimClusterJ(t *testing.T, seed uint64, byz map[int]Byzantine, numBallots, numVC int,
	lp transport.LinkProfile,
	stack func(i int, data *ea.ElectionData, ep transport.Endpoint, tm clock.Timers) transport.Endpoint,
	dirs []string, jopts journal.Options) *cluster {
	return newSimClusterJE(t, seed, byz, numBallots, numVC, lp, stack, dirs, jopts, nil)
}

// newSimClusterJE additionally selects the vote-set-consensus engine every
// node (and every restart incarnation) runs — nil means the paper's
// interlocked protocol. The engine-differential and engine-rotation sweeps
// are the callers that set it.
func newSimClusterJE(t *testing.T, seed uint64, byz map[int]Byzantine, numBallots, numVC int,
	lp transport.LinkProfile,
	stack func(i int, data *ea.ElectionData, ep transport.Endpoint, tm clock.Timers) transport.Endpoint,
	dirs []string, jopts journal.Options, engine EngineFactory) *cluster {
	t.Helper()
	start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	data, err := ea.Setup(ea.Params{
		ElectionID:  "vc-batch-test",
		Options:     []string{"yes", "no"},
		NumBallots:  numBallots,
		NumVC:       numVC,
		NumBB:       1,
		NumTrustees: 1,
		VotingStart: start,
		VotingEnd:   start.Add(2 * time.Hour),
		VCOnly:      true,
		Seed:        []byte("vc-batch-cluster-seed"),
	})
	if err != nil {
		t.Fatal(err)
	}
	drv := sim.New(sim.Config{Start: start.Add(time.Minute)})
	net := transport.NewMemnetWithTimers(lp, drv)
	net.Reseed(seed, 0xFA17)
	if dirs == nil {
		dirs = make([]string, numVC)
	}
	c := &cluster{
		t:      t,
		data:   data,
		net:    net,
		drv:    drv,
		byz:    byz,
		engine: engine,
		stack:  stack,
		dirs:   dirs,
		jopts:  jopts,
	}
	for i := 0; i < numVC; i++ {
		ep := stack(i, data, c.net.Endpoint(transport.NodeID(i)), drv)
		node, err := New(Config{
			Init:      data.VC[i],
			Endpoint:  ep,
			Clock:     drv,
			Byzantine: byz[i],
			Engine:    engine,
		})
		if err != nil {
			t.Fatal(err)
		}
		if c.dirs[i] != "" {
			if err := node.RecoverWithOptions(c.dirs[i], jopts); err != nil {
				t.Fatal(err)
			}
		}
		node.Start()
		c.nodes = append(c.nodes, node)
	}
	t.Cleanup(c.stop)
	t.Cleanup(drv.Spin())
	return c
}

// batchedStack is the production endpoint stack: network → Authenticated →
// Batcher.
func batchedStack(i int, data *ea.ElectionData, ep transport.Endpoint, tm clock.Timers) transport.Endpoint {
	auth, err := transport.NewAuthenticated(ep, data.VC[i].LinkKeys)
	if err != nil {
		panic(err)
	}
	return transport.NewBatcher(auth, transport.BatcherOptions{})
}

// rawStack attaches nodes directly to the network.
func rawStack(i int, data *ea.ElectionData, ep transport.Endpoint, tm clock.Timers) transport.Endpoint {
	return ep
}

func TestVoteBatchedPipeline(t *testing.T) {
	c := newClusterStack(t, 8, 4,
		transport.LinkProfile{Latency: 200 * time.Microsecond},
		batchedStack)
	for i := 0; i < 4; i++ {
		serial := uint64(i + 1)
		receipt, err := c.vote(serial, ballot.PartA, i%2, i)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if !bytes.Equal(receipt, c.expectedReceipt(serial, ballot.PartA, i%2)) {
			t.Fatalf("node %d: wrong receipt", i)
		}
	}
}

func TestVoteBatchedConcurrentVoters(t *testing.T) {
	const voters = 40
	c := newClusterStack(t, voters, 4,
		transport.LinkProfile{Latency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond},
		batchedStack)
	errs := make(chan error, voters)
	for v := 0; v < voters; v++ {
		go func(v int) {
			serial := uint64(v + 1)
			part := ballot.PartID(v % 2) //nolint:gosec // 0 or 1
			receipt, err := c.vote(serial, part, v%2, v%4)
			if err == nil && !bytes.Equal(receipt, c.expectedReceipt(serial, part, v%2)) {
				err = ErrInvalidCode
			}
			errs <- err
		}(v)
	}
	for v := 0; v < voters; v++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestVoteBatchingSenderOnlyInterop(t *testing.T) {
	// Only node 0 batches; the other nodes run raw endpoints with no
	// unbatching wrapper, so their pumps must split wire.Batch envelopes
	// themselves (a rolling restart that meets nodes predating batching).
	c := newClusterStack(t, 4, 4,
		transport.LinkProfile{Latency: 200 * time.Microsecond},
		func(i int, data *ea.ElectionData, ep transport.Endpoint, tm clock.Timers) transport.Endpoint {
			if i == 0 {
				return transport.NewBatcher(ep, transport.BatcherOptions{})
			}
			return ep
		})
	receipt, err := c.vote(1, ballot.PartB, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(receipt, c.expectedReceipt(1, ballot.PartB, 1)) {
		t.Fatal("wrong receipt")
	}
}

func TestBatchedDuplicationIsIdempotent(t *testing.T) {
	// Whole-batch duplication re-delivers every message inside the batch;
	// duplicate ENDORSEMENTs and VOTE_Ps must not corrupt any receipt.
	const voters = 12
	c := newClusterStack(t, voters, 4,
		transport.LinkProfile{Latency: 200 * time.Microsecond, Jitter: 300 * time.Microsecond, DupRate: 0.4},
		batchedStack)
	for v := 0; v < voters; v++ {
		serial := uint64(v + 1)
		receipt, err := c.vote(serial, ballot.PartA, v%2, v%4)
		if err != nil {
			t.Fatalf("ballot %d: %v", serial, err)
		}
		if !bytes.Equal(receipt, c.expectedReceipt(serial, ballot.PartA, v%2)) {
			t.Fatalf("ballot %d: wrong receipt", serial)
		}
	}
}

// TestBatchedFaultInjectionAtMostOneUCert drives the core safety invariant
// through the batched pipeline under Memnet fault injection: whole batches
// are dropped, duplicated and reordered while two different codes race for
// every ballot. No ballot may ever certify two codes — receipts may fail
// (drops without retransmission can starve the endorsement threshold), but
// any two nodes that certified a ballot must agree.
func TestBatchedFaultInjectionAtMostOneUCert(t *testing.T) {
	const ballots = 12
	c := newClusterStack(t, ballots, 4,
		transport.LinkProfile{
			Latency:  200 * time.Microsecond,
			Jitter:   2 * time.Millisecond, // reorders whole batches
			DropRate: 0.10,
			DupRate:  0.15,
		},
		batchedStack)

	type res struct {
		serial  uint64
		receipt []byte
		err     error
	}
	results := make(chan res, 2*ballots)
	var wg sync.WaitGroup
	for b := 0; b < ballots; b++ {
		serial := uint64(b + 1)
		codeA, err := c.data.Ballots[b].CodeFor(ballot.PartA, 0)
		if err != nil {
			t.Fatal(err)
		}
		codeB, err := c.data.Ballots[b].CodeFor(ballot.PartB, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, code := range [][]byte{codeA, codeB} {
			wg.Add(1)
			go func(at int, code []byte) {
				defer wg.Done()
				// Virtual deadline: a starved vote ends when the simulation
				// reaches +5s, not after a wall-clock sleep.
				ctx, cancel := c.drv.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				r, err := c.nodes[at].SubmitVote(ctx, serial, code)
				results <- res{serial, r, err}
			}((b+i)%4, code)
		}
	}
	wg.Wait()
	close(results)

	receipts := make(map[uint64]int)
	for r := range results {
		if r.err == nil {
			receipts[r.serial]++
		}
	}
	for serial, got := range receipts {
		if got > 1 {
			t.Errorf("ballot %d: %d receipts issued for conflicting codes", serial, got)
		}
	}
	// Certification agreement: every node that bound a ballot to a code must
	// have bound it to the same code.
	for b := 0; b < ballots; b++ {
		serial := uint64(b + 1)
		var seen []byte
		for i, n := range c.nodes {
			_, code := n.BallotStatus(serial)
			if code == nil {
				continue
			}
			if seen == nil {
				seen = code
			} else if !bytes.Equal(seen, code) {
				t.Errorf("ballot %d: node %d certified a different code", serial, i)
			}
		}
	}
}

package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"ddemos/internal/bb"
	"ddemos/internal/sim"
)

// TestElectionSurvivesBBRestart runs the full pipeline with a durable
// cluster and hard-stops BB node 0 between the push-to-BB phase and the
// trustee publish phase: the relaunched incarnation must rebuild its
// accepted vote sets, msk shares and published cast data from its journal
// alone, accept the trustee posts, and publish a result byte-identical to
// the never-crashed replicas — all through the Reader's forwarding
// handles, which must follow the restart transparently.
func TestElectionSurvivesBBRestart(t *testing.T) {
	data := testData(t, 6)
	c, err := NewCluster(data, Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	votes := []int{0, 1, 1, 0, -1, 2}
	castAll(t, c, votes)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sets, err := c.RunVoteSetConsensus(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PushToBB(sets); err != nil {
		t.Fatal(err)
	}

	// Process death after the cast data went out. The cluster keeps
	// serving reads meanwhile: fb+1 = 2 of the remaining replicas agree.
	c.StopBB(0)
	if _, err := c.Reader.Cast(); err != nil {
		t.Fatalf("majority read with one BB stopped: %v", err)
	}

	if err := c.RestartBB(0); err != nil {
		t.Fatal(err)
	}
	// The recovered incarnation republished the cast data from journaled
	// submissions alone — no network, no peer transfer (BB nodes never
	// talk to each other).
	if _, err := c.BB(0).Cast(); err != nil {
		t.Fatalf("recovered BB lost the cast data: %v", err)
	}

	if err := c.RunTrustees(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Reader.Result()
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, res, []int64{2, 2, 1})

	recovered, err := c.BB(0).Read(bb.KindResult)
	if err != nil {
		t.Fatalf("recovered BB published no result: %v", err)
	}
	witness, err := c.BB(1).Read(bb.KindResult)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recovered, witness) {
		t.Fatal("recovered replica's result diverges from a never-crashed replica")
	}
}

// Compile-time checks: the BB fault surface plugs into the scenario
// machinery exactly like the cluster's VC surface does.
var (
	_ sim.Surface   = (*BBFaultSurface)(nil)
	_ sim.Restarter = (*BBFaultSurface)(nil)
)

// TestBBFaultSurfaceDrivesRestart drives the sim adapter methods directly:
// StopNode/RestartNode must compose with a live pipeline, Crash/Restore
// must degrade to the same stop/relaunch semantics (BB replicas hold no
// volatile protocol state worth isolating), and Partition must be a no-op
// (BB nodes never talk to each other, so there is no link to cut).
func TestBBFaultSurfaceDrivesRestart(t *testing.T) {
	data := testData(t, 4)
	c, err := NewCluster(data, Options{DataDir: t.TempDir(), JournalPool: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	votes := []int{0, 1, 2, 1}
	castAll(t, c, votes)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sets, err := c.RunVoteSetConsensus(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PushToBB(sets); err != nil {
		t.Fatal(err)
	}

	surface := c.BBFaults()
	surface.Partition(0, 1, true) // must not affect anything
	surface.StopNode(1)
	surface.Crash(2) // degrades to a hard stop
	surface.RestartNode(1)
	surface.Restore(2)
	surface.Partition(0, 1, false)

	for i := 1; i <= 2; i++ {
		if _, err := c.BB(i).Cast(); err != nil {
			t.Fatalf("BB %d after fault-surface restart: %v", i, err)
		}
	}

	if err := c.RunTrustees(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Reader.Result()
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, res, []int64{1, 2, 1})
}

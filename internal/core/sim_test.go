package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ddemos/internal/ballot"
	"ddemos/internal/sim"
	"ddemos/internal/transport"
	"ddemos/internal/vc"
)

// The cluster is the scenario layer's fault surface.
var _ sim.Surface = (*Cluster)(nil)

// newSimCluster builds a cluster in the driver's virtual time and starts
// the driver's spin loop for the test's lifetime.
func newSimCluster(t *testing.T, numBallots int, drv *sim.Driver, opts Options) *Cluster {
	t.Helper()
	data := testData(t, numBallots)
	opts.Sim = drv
	c, err := NewCluster(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	t.Cleanup(drv.Spin())
	return c
}

func TestWANElectionRunsInVirtualTime(t *testing.T) {
	// A full election over the paper's 25 ms WAN profile: in virtual time
	// the latency shows up on the driver's clock, not the wall.
	drv := sim.New(sim.Config{})
	wan := transport.WANProfile
	c := newSimCluster(t, 6, drv, Options{LinkProfile: &wan})

	castAll(t, c, []int{0, 1, 0, 2, 0, -1})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := c.RunPipeline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, res, []int64{3, 1, 1})
	// The protocol did many WAN round trips; the virtual clock must show
	// them (votes alone cost >= 2 hops of 25ms each).
	if el := drv.Elapsed(); el < 50*time.Millisecond {
		t.Fatalf("virtual clock advanced only %v over a WAN election", el)
	}
}

func TestBatchedAuthenticatedElectionOnSim(t *testing.T) {
	// The full production stack — Authenticated + Batcher endpoints — with
	// the link latency on the virtual clock.
	drv := sim.New(sim.Config{})
	c := newSimCluster(t, 4, drv, Options{})
	castAll(t, c, []int{0, 1, 2, 0})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := c.RunPipeline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, res, []int64{2, 1, 1})
}

// TestScenarioDrivenElectionSafety drives a seeded fault schedule — crash
// windows and partitions during the voting phase — while voters race it,
// with the at-most-one-UCERT invariant probed continuously. After the
// faults heal, the pipeline runs and Theorem 2's contract is checked: every
// receipt issued is a vote in the published set with the correct receipt
// bytes.
func TestScenarioDrivenElectionSafety(t *testing.T) {
	const numBallots = 6
	for _, seed := range []uint64{7, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			drv := sim.New(sim.Config{})
			c := newSimCluster(t, numBallots, drv, Options{})
			scen := sim.RandomScenario(seed, sim.ScenarioConfig{
				NumNodes: len(c.VCs),
				Duration: 30 * time.Millisecond,
			})
			scen.Install(drv, c)
			probeViolations := scen.InstallProbes(drv, []sim.Probe{{
				Name:  "at-most-one-ucert",
				Every: 2 * time.Millisecond,
				Check: func() error { return vc.CertAgreement(c.VCs, numBallots) },
			}})

			// Voters race the fault schedule: each submits directly to one VC
			// node with a virtual-time deadline. Receipts may starve (crashed
			// responders are not retried here) — safety must hold regardless.
			type outcome struct {
				serial  uint64
				option  int
				receipt []byte
			}
			var mu sync.Mutex
			var got []outcome
			var wg sync.WaitGroup
			for b := 0; b < numBallots; b++ {
				wg.Add(1)
				go func(b int) {
					defer wg.Done()
					serial := uint64(b + 1)
					option := b % 3
					code, err := c.Data.Ballots[b].CodeFor(ballot.PartA, option)
					if err != nil {
						t.Error(err)
						return
					}
					ctx, cancel := drv.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					r, err := c.VCs[b%len(c.VCs)].SubmitVote(ctx, serial, code)
					if err != nil {
						return // starved by the fault schedule: allowed
					}
					mu.Lock()
					got = append(got, outcome{serial, option, r})
					mu.Unlock()
				}(b)
			}
			wg.Wait()

			// Receipt validity: what the voter holds is the ballot's true
			// receipt line.
			for _, o := range got {
				want := c.Data.Ballots[o.serial-1].Parts[ballot.PartA].Lines[o.option].Receipt
				if !bytes.Equal(o.receipt, want) {
					t.Errorf("ballot %d: corrupted receipt", o.serial)
				}
			}

			// Voters may all resolve before the fault schedule has finished;
			// healing a fault that has not fired yet would be a no-op and the
			// pipeline would race live faults. Wait (wall-clock poll, virtual
			// progress) until every scheduled fault has executed.
			deadline := time.Now().Add(30 * time.Second)
			for len(drv.Trace()) < len(scen.Faults) {
				if time.Now().After(deadline) {
					t.Fatalf("fault schedule never completed: %d/%d fired", len(drv.Trace()), len(scen.Faults))
				}
				time.Sleep(time.Millisecond)
			}

			// Heal everything, close polls, run the pipeline.
			for _, f := range scen.Faults {
				if f.Kind == sim.FaultCrash {
					c.RestoreVC(f.A)
				}
				if f.Kind == sim.FaultPartitionForm {
					c.Partition(f.A, f.B, false)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			sets, err := c.RunVoteSetConsensus(ctx, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.PushToBB(sets); err != nil {
				t.Fatal(err)
			}
			if err := c.RunTrustees(); err != nil {
				t.Fatal(err)
			}

			// Theorem 2: receipt in hand => vote in the published set.
			voteSet, err := c.Reader.VoteSet()
			if err != nil {
				t.Fatal(err)
			}
			published := make(map[uint64]bool, len(voteSet))
			for _, vb := range voteSet {
				published[vb.Serial] = true
			}
			for _, o := range got {
				if !published[o.serial] {
					t.Errorf("seed %d: ballot %d has a receipt but is not in the published set", seed, o.serial)
				}
			}
			if !probeViolations.Empty() {
				t.Fatalf("seed %d: probe violations: %v", seed, probeViolations.List())
			}
		})
	}
}

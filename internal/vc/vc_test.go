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
	"ddemos/internal/wire"
)

// cluster is a test harness running Nv VC nodes over a simulated network.
// Either clk (manual fake clock, real Memnet timers) or drv (virtual time,
// sim-driven Memnet) is set, depending on the constructor. Sim-built
// clusters can stop and restart nodes in place (crash-recovery scenarios);
// dirs holds each node's journal directory ("" = memory-only node).
type cluster struct {
	t    *testing.T
	data *ea.ElectionData
	net  *transport.Memnet
	clk  *clock.Fake
	drv  *sim.Driver

	mu    sync.Mutex
	nodes []*Node

	dirs   []string
	jopts  journal.Options   // journal engine config for journaled nodes
	flip   map[int]Byzantine // behaviour applied from the next restart on
	byz    map[int]Byzantine
	engine EngineFactory // vote-set-consensus engine (nil = interlocked)
	stack  func(i int, data *ea.ElectionData, ep transport.Endpoint, tm clock.Timers) transport.Endpoint
}

// Crash, Restore and Partition implement sim.Surface for scenario runs.
func (c *cluster) Crash(i int)   { c.net.Isolate(transport.NodeID(i), true) }  //nolint:gosec // small
func (c *cluster) Restore(i int) { c.net.Isolate(transport.NodeID(i), false) } //nolint:gosec // small
func (c *cluster) Partition(a, b int, on bool) {
	c.net.Partition(transport.NodeID(a), transport.NodeID(b), on) //nolint:gosec // small
}

// node returns the current incarnation of node i (restarts swap it).
func (c *cluster) node(i int) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i]
}

// StopNode implements sim.Restarter: a hard stop — all volatile state of
// the incarnation is gone; only its journal (if any) survives.
func (c *cluster) StopNode(i int) {
	c.node(i).Stop()
}

// RestartNode implements sim.Restarter: relaunch node i from its journal
// under the same network identity. A node marked in c.flip comes back with
// the flipped Byzantine behaviour — it crashed honest and restarts
// corrupted (the corruption-on-recovery fault class).
func (c *cluster) RestartNode(i int) {
	c.node(i).Stop()                                                     // idempotent: a restart without a prior stop is legal
	ep := c.stack(i, c.data, c.net.Endpoint(transport.NodeID(i)), c.drv) //nolint:gosec // small
	mode := c.byz[i]
	if b, ok := c.flip[i]; ok {
		mode = b
	}
	node, err := New(Config{
		Init:      c.data.VC[i],
		Endpoint:  ep,
		Clock:     c.drv,
		Byzantine: mode,
		Engine:    c.engine,
	})
	if err != nil {
		c.t.Errorf("restart vc %d: %v", i, err)
		return
	}
	if c.dirs[i] != "" {
		if err := node.RecoverWithOptions(c.dirs[i], c.jopts); err != nil {
			c.t.Errorf("restart vc %d: recover: %v", i, err)
			return
		}
	}
	node.Start()
	c.mu.Lock()
	c.nodes[i] = node
	c.mu.Unlock()
}

func newCluster(t *testing.T, numBallots, numVC int, byz map[int]Byzantine) *cluster {
	t.Helper()
	start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	data, err := ea.Setup(ea.Params{
		ElectionID:  "vc-test",
		Options:     []string{"yes", "no"},
		NumBallots:  numBallots,
		NumVC:       numVC,
		NumBB:       1,
		NumTrustees: 1,
		VotingStart: start,
		VotingEnd:   start.Add(2 * time.Hour),
		VCOnly:      true,
		Seed:        []byte("vc-cluster-seed"),
	})
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{
		t:    t,
		data: data,
		net:  transport.NewMemnet(transport.LinkProfile{Latency: 200 * time.Microsecond}),
		clk:  clock.NewFake(start.Add(time.Minute)),
	}
	for i := 0; i < numVC; i++ {
		mode := Honest
		if byz != nil {
			mode = byz[i]
		}
		node, err := New(Config{
			Init:      data.VC[i],
			Endpoint:  c.net.Endpoint(transport.NodeID(i)),
			Clock:     c.clk,
			Byzantine: mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		node.Start()
		c.nodes = append(c.nodes, node)
	}
	t.Cleanup(c.stop)
	return c
}

func (c *cluster) stop() {
	c.mu.Lock()
	nodes := append([]*Node(nil), c.nodes...)
	c.mu.Unlock()
	for _, n := range nodes {
		n.Stop()
	}
	_ = c.net.Close()
}

// vote casts ballot `serial` with the code for (part, option) at node `at`.
func (c *cluster) vote(serial uint64, part ballot.PartID, option, at int) ([]byte, error) {
	code, err := c.data.Ballots[serial-1].CodeFor(part, option)
	if err != nil {
		c.t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return c.nodes[at].SubmitVote(ctx, serial, code)
}

func (c *cluster) expectedReceipt(serial uint64, part ballot.PartID, option int) []byte {
	return c.data.Ballots[serial-1].Parts[part].Lines[option].Receipt
}

func TestVoteIssuesCorrectReceipt(t *testing.T) {
	c := newCluster(t, 4, 4, nil)
	receipt, err := c.vote(1, ballot.PartA, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(receipt, c.expectedReceipt(1, ballot.PartA, 0)) {
		t.Fatalf("receipt %x does not match ballot %x", receipt, c.expectedReceipt(1, ballot.PartA, 0))
	}
}

func TestVoteEveryNodeCanRespond(t *testing.T) {
	c := newCluster(t, 8, 4, nil)
	for i := 0; i < 4; i++ {
		serial := uint64(i + 1)
		receipt, err := c.vote(serial, ballot.PartB, 1, i)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if !bytes.Equal(receipt, c.expectedReceipt(serial, ballot.PartB, 1)) {
			t.Fatalf("node %d: wrong receipt", i)
		}
	}
}

func TestResubmitSameCodeReturnsStoredReceipt(t *testing.T) {
	c := newCluster(t, 2, 4, nil)
	r1, err := c.vote(1, ballot.PartA, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.vote(1, ballot.PartA, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1, r2) {
		t.Fatal("resubmission returned a different receipt")
	}
	// Resubmission at a different node must also work once it holds the
	// voted state (it participated in VOTE_P).
	waitFor(t, func() bool {
		st, _ := c.nodes[2].BallotStatus(1)
		return st == Voted
	})
	r3, err := c.vote(1, ballot.PartA, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1, r3) {
		t.Fatal("other node returned different receipt")
	}
}

func TestDifferentCodeRejectedAfterVote(t *testing.T) {
	c := newCluster(t, 2, 4, nil)
	if _, err := c.vote(1, ballot.PartA, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.vote(1, ballot.PartA, 1, 0); err == nil {
		t.Fatal("second code on same ballot must be rejected")
	}
	if _, err := c.vote(1, ballot.PartB, 0, 0); err == nil {
		t.Fatal("code from other part must be rejected")
	}
}

func TestInvalidInputsRejected(t *testing.T) {
	c := newCluster(t, 2, 4, nil)
	ctx := context.Background()
	if _, err := c.nodes[0].SubmitVote(ctx, 999, []byte("nonsense-vote-code!!")); err == nil {
		t.Fatal("unknown serial must be rejected")
	}
	if _, err := c.nodes[0].SubmitVote(ctx, 1, []byte("nonsense-vote-code!!")); err == nil {
		t.Fatal("invalid code must be rejected")
	}
}

func TestOutsideElectionHours(t *testing.T) {
	c := newCluster(t, 2, 4, nil)
	c.clk.Set(c.data.Manifest.VotingEnd.Add(time.Minute))
	if _, err := c.vote(1, ballot.PartA, 0, 0); err == nil {
		t.Fatal("vote after end must be rejected")
	}
	c.clk.Set(c.data.Manifest.VotingStart.Add(-time.Minute))
	if _, err := c.vote(1, ballot.PartA, 0, 0); err == nil {
		t.Fatal("vote before start must be rejected")
	}
}

func TestVoteWithCrashedMinority(t *testing.T) {
	// fv = 1 for Nv = 4: one crashed node must not block receipts.
	c := newCluster(t, 4, 4, nil)
	c.net.Isolate(3, true)
	receipt, err := c.vote(1, ballot.PartA, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(receipt, c.expectedReceipt(1, ballot.PartA, 0)) {
		t.Fatal("wrong receipt")
	}
}

func TestVoteBlockedByCrashedMajority(t *testing.T) {
	// Two crashed nodes out of 4 exceed fv: no receipt can form.
	c := newCluster(t, 2, 4, nil)
	c.net.Isolate(2, true)
	c.net.Isolate(3, true)
	code, _ := c.data.Ballots[0].CodeFor(ballot.PartA, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := c.nodes[0].SubmitVote(ctx, 1, code); err == nil {
		t.Fatal("receipt must not form beyond the fault threshold")
	}
}

func TestVoteWithShareCorruptor(t *testing.T) {
	// A Byzantine node sending corrupt shares must not prevent receipt
	// generation (honest shares suffice) nor corrupt the receipt (EA
	// signatures filter bad shares).
	c := newCluster(t, 4, 4, map[int]Byzantine{3: ShareCorruptor})
	receipt, err := c.vote(1, ballot.PartB, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(receipt, c.expectedReceipt(1, ballot.PartB, 0)) {
		t.Fatal("corrupted shares produced wrong receipt")
	}
	waitFor(t, func() bool { return c.nodes[0].Metrics().BadShares > 0 })
}

func TestConcurrentVotersDistinctBallots(t *testing.T) {
	const voters = 40
	c := newCluster(t, voters, 4, nil)
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

func TestConcurrentSameBallotSameCode(t *testing.T) {
	// Multiple submissions of the same code (possibly at different nodes)
	// must all converge on the same receipt.
	c := newCluster(t, 1, 4, nil)
	const n = 4
	type res struct {
		receipt []byte
		err     error
	}
	results := make(chan res, n)
	for i := 0; i < n; i++ {
		go func(at int) {
			r, err := c.vote(1, ballot.PartA, 1, at)
			results <- res{r, err}
		}(i % 4)
	}
	var first []byte
	for i := 0; i < n; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if first == nil {
			first = r.receipt
		} else if !bytes.Equal(first, r.receipt) {
			t.Fatal("inconsistent receipts for same code")
		}
	}
}

func TestUCertUniqueness(t *testing.T) {
	// Concurrent submissions of two DIFFERENT codes for one ballot: at most
	// one may obtain a receipt; the ballot must never be certified for both.
	c := newCluster(t, 1, 4, nil)
	codeA, _ := c.data.Ballots[0].CodeFor(ballot.PartA, 0)
	codeB, _ := c.data.Ballots[0].CodeFor(ballot.PartB, 1)
	type res struct {
		receipt []byte
		err     error
	}
	results := make(chan res, 2)
	submit := func(at int, code []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 700*time.Millisecond)
		defer cancel()
		r, err := c.nodes[at].SubmitVote(ctx, 1, code)
		results <- res{r, err}
	}
	go submit(0, codeA)
	go submit(1, codeB)
	got := 0
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err == nil {
			got++
		}
	}
	if got > 1 {
		t.Fatal("two different codes both produced receipts")
	}
	// All nodes that have a certified code must agree on which one.
	var seen []byte
	for i, n := range c.nodes {
		_, code := n.BallotStatus(1)
		if code == nil {
			continue
		}
		if seen == nil {
			seen = code
		} else if !bytes.Equal(seen, code) {
			t.Fatalf("node %d certified a different code", i)
		}
	}
}

func TestUCertVerification(t *testing.T) {
	c := newCluster(t, 2, 4, nil)
	if _, err := c.vote(1, ballot.PartA, 0, 0); err != nil {
		t.Fatal(err)
	}
	entries := c.nodes[0].certifiedEntries()
	if len(entries) != 1 {
		t.Fatalf("%d certified entries", len(entries))
	}
	cert := entries[0].Cert
	man := c.nodes[1].manifest
	verify := func(cert *wire.UCert) bool {
		return VerifyUCert(cert, man.ElectionID, man.VCPublics, man.ReceiptThreshold())
	}
	if !verify(&cert) {
		t.Fatal("valid UCERT rejected")
	}
	// Tamper: change the code.
	bad := cert
	bad.Code = append([]byte(nil), cert.Code...)
	bad.Code[0] ^= 1
	if verify(&bad) {
		t.Fatal("tampered UCERT accepted")
	}
	// Too few signatures.
	bad2 := cert
	bad2.Sigs = cert.Sigs[:1]
	if verify(&bad2) {
		t.Fatal("UCERT with too few sigs accepted")
	}
	// Duplicate signer must not inflate the count.
	bad3 := cert
	bad3.Sigs = []wire.SigEntry{cert.Sigs[0], cert.Sigs[0], cert.Sigs[0]}
	if verify(&bad3) {
		t.Fatal("UCERT with duplicated signer accepted")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

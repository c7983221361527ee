package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"ddemos/internal/auditor"
	"ddemos/internal/ballot"
	"ddemos/internal/bb"
	"ddemos/internal/ea"
	"ddemos/internal/sim"
	"ddemos/internal/transport"
	"ddemos/internal/trustee"
	"ddemos/internal/vc"
	"ddemos/internal/voter"
	"ddemos/internal/wire"
)

func testData(t *testing.T, numBallots int, opts ...func(*ea.Params)) *ea.ElectionData {
	t.Helper()
	start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	p := ea.Params{
		ElectionID:  "core-test",
		Options:     []string{"alice", "bob", "carol"},
		NumBallots:  numBallots,
		NumVC:       4,
		NumBB:       3,
		NumTrustees: 3,
		VotingStart: start,
		VotingEnd:   start.Add(2 * time.Hour),
		Seed:        []byte("core-test-seed"),
	}
	for _, o := range opts {
		o(&p)
	}
	data, err := ea.Setup(p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// castAll has voter i vote for option votes[i] (or abstain when -1),
// returning the cast results.
func castAll(t *testing.T, c *Cluster, votes []int) []*voter.CastResult {
	t.Helper()
	results := make([]*voter.CastResult, len(votes))
	services := make([]voter.Service, len(c.VCs))
	for i, n := range c.VCs {
		services[i] = n
	}
	for i, opt := range votes {
		if opt < 0 {
			continue
		}
		cl := &voter.Client{
			Ballot:   c.Data.Ballots[i],
			Services: services,
			Patience: 5 * time.Second,
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		res, err := cl.Cast(ctx, opt)
		cancel()
		if err != nil {
			t.Fatalf("voter %d: %v", i, err)
		}
		results[i] = res
	}
	return results
}

func wantCounts(t *testing.T, res *bb.Result, want []int64) {
	t.Helper()
	if len(res.Counts) != len(want) {
		t.Fatalf("counts arity %d, want %d", len(res.Counts), len(want))
	}
	for i, w := range want {
		if res.Counts[i] != w {
			t.Fatalf("counts[%d] = %d, want %d (all: %v)", i, res.Counts[i], w, res.Counts)
		}
	}
}

func TestFullElectionPipeline(t *testing.T) {
	data := testData(t, 10)
	c, err := NewCluster(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// 10 ballots: 4×alice, 3×bob, 1×carol, 2 abstentions.
	votes := []int{0, 0, 0, 0, 1, 1, 1, 2, -1, -1}
	start := time.Now()
	results := castAll(t, c, votes)
	c.RecordVoteCollection(time.Since(start))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := c.RunPipeline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, res, []int64{4, 3, 1})

	// Every voter's post-election verification passes.
	services := make([]voter.Service, len(c.VCs))
	for i, n := range c.VCs {
		services[i] = n
	}
	for i, r := range results {
		if r == nil {
			continue
		}
		cl := &voter.Client{Ballot: c.Data.Ballots[i], Services: services}
		if err := cl.Verify(c.Reader, r); err != nil {
			t.Fatalf("voter %d verification: %v", i, err)
		}
	}

	// A full third-party audit with delegated packages passes.
	var pkgs []*ballot.AuditPackage
	for i, r := range results {
		cl := &voter.Client{Ballot: c.Data.Ballots[i]}
		pkg, err := cl.AuditPackage(r)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	report, err := auditor.Audit(c.Reader, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("audit failed: %v", report.Failures)
	}
	if report.BallotsChecked != 10 || report.DelegatedChecks != 10 {
		t.Fatalf("audit coverage wrong: %+v", report)
	}

	// All phases were recorded.
	phases := c.Phases()
	for _, name := range []string{PhaseVoteCollection, PhaseVoteSetConsensus, PhasePushAndTally, PhasePublishResult} {
		if phases[name] <= 0 {
			t.Fatalf("phase %q not recorded", name)
		}
	}
}

// TestElectionSurvivesVCRestart crashes a journaled VC node mid-election —
// a hard stop, volatile state gone — restarts it from its WAL/snapshot, and
// requires the election to complete with the restarted node participating:
// its pre-crash receipts reproduce byte-identically, it serves as responder
// again, and it joins vote-set consensus with its recovered certified set.
func TestElectionSurvivesVCRestart(t *testing.T) {
	data := testData(t, 6)
	c, err := NewCluster(data, Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	start := time.Now()
	// Phase 1: ballots 0 and 1, with node 1 the responder for ballot 0.
	cast := func(ballotIdx, opt, at int) *voter.CastResult {
		t.Helper()
		cl := &voter.Client{
			Ballot:   c.Data.Ballots[ballotIdx],
			Services: []voter.Service{c.VC(at)},
			Patience: 5 * time.Second,
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		res, err := cl.Cast(ctx, opt)
		if err != nil {
			t.Fatalf("ballot %d at vc %d: %v", ballotIdx, at, err)
		}
		return res
	}
	r0 := cast(0, 0, 1)
	cast(1, 1, 0)

	// Phase 2: node 1 dies. Collection continues — fv=1 of Nv=4.
	c.StopVC(1)
	cast(2, 2, 0)
	cast(3, 0, 2)

	// Phase 3: node 1 comes back from its journal.
	if err := c.RestartVC(1); err != nil {
		t.Fatal(err)
	}
	// Pre-crash receipt reproduces at the restarted node, from recovered
	// state alone (same code, same ballot — the Voted fast path).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	r0again, err := c.VC(1).SubmitVote(ctx, r0.Serial, r0.Code)
	cancel()
	if err != nil {
		t.Fatalf("resubmission at restarted node: %v", err)
	}
	if string(r0again) != string(r0.Receipt) {
		t.Fatalf("receipt changed across restart: %x != %x", r0again, r0.Receipt)
	}
	// The restarted node serves as responder for a fresh ballot.
	cast(4, 1, 1)
	c.RecordVoteCollection(time.Since(start))

	// The pipeline completes with the restarted node in consensus.
	pctx, pcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer pcancel()
	res, err := c.RunPipeline(pctx)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, res, []int64{2, 2, 1})
}

func TestElectionWithAllFaultsAtThreshold(t *testing.T) {
	// Simultaneously: 1 Byzantine VC of 4 (fv=1), 1 lying BB of 3 (fb=1),
	// 1 garbage trustee of 3 (ht=2). The election must still complete,
	// verify, and audit clean.
	data := testData(t, 6)
	c, err := NewCluster(data, Options{
		VCByzantine:       map[int]vc.Byzantine{3: vc.ShareCorruptor},
		LyingBB:           map[int]bool{0: true},
		ByzantineTrustees: map[int]trustee.Byzantine{2: trustee.GarbageShares},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	votes := []int{0, 1, 2, 0, -1, 1}
	castAll(t, c, votes)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := c.RunPipeline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, res, []int64{2, 2, 1})

	report, err := auditor.Audit(c.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("audit failed: %v", report.Failures)
	}
}

func TestElectionWithCrashedVC(t *testing.T) {
	data := testData(t, 4)
	c, err := NewCluster(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.CrashVC(2)

	votes := []int{0, 1, -1, -1}
	castAll(t, c, votes)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sets, err := c.RunVoteSetConsensus(ctx, map[int]bool{2: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PushToBB(sets); err != nil {
		t.Fatal(err)
	}
	if err := c.RunTrustees(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Reader.Result()
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, res, []int64{1, 1, 0})
}

// injectUnauthenticated puts malformed frames on VC 0's network seat towards
// VC 1 without a link tag, as any host that reaches a VC's port could, and
// checks that none reached VC 1's node: one that did would fail to decode
// there and be counted as a bad message.
func injectUnauthenticated(t *testing.T, c *Cluster) {
	t.Helper()
	before := c.VC(1).Metrics().BadMessages
	seat := c.Net.Endpoint(0)
	junk := bytes.Repeat([]byte{0xFF}, 2*transport.TagSize) // no such wire kind
	for _, f := range [][]byte{junk, wire.Encode(&wire.Batch{Frames: [][]byte{junk}})} {
		if err := seat.Send(1, f); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(100 * time.Millisecond) // many LAN hops
	if got := c.VC(1).Metrics().BadMessages - before; got != 0 {
		t.Fatalf("%d unauthenticated frames reached VC 1's node", got)
	}
}

// TestAuthenticatedChannels: links are authenticated with no option set;
// frames in VC 0's name without its tag never reach VC 1, and the election
// runs.
func TestAuthenticatedChannels(t *testing.T) {
	data := testData(t, 3)
	c, err := NewCluster(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	injectUnauthenticated(t, c)
	castAll(t, c, []int{0, 1, 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := c.RunPipeline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, res, []int64{1, 1, 1})
}

func TestBatchedPipelineFullElection(t *testing.T) {
	// The batched message pipeline (Authenticated + Batcher endpoints) must
	// run the complete election — collection, vote-set consensus, push,
	// tally — exactly like the unbatched path.
	data := testData(t, 4)
	c, err := NewCluster(data, Options{
		BatchWindow:      500 * time.Microsecond,
		BatchMaxMessages: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	castAll(t, c, []int{0, 1, 2, 0})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := c.RunPipeline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, res, []int64{2, 1, 1})
}

func TestBatchedUnauthenticatedPipeline(t *testing.T) {
	// Unauthenticated frames on a batched cluster: the Batcher sits above
	// the link authentication, so a forged batch is dropped whole before it
	// is split.
	data := testData(t, 3)
	c, err := NewCluster(data, Options{BatchWindow: 300 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	injectUnauthenticated(t, c)
	castAll(t, c, []int{2, 2, 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := c.RunPipeline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, res, []int64{0, 1, 2})
}

func TestSafetyReceiptImpliesTallied(t *testing.T) {
	// Theorem 2's contract: a receipt in hand implies the vote is published
	// and tallied — even when the responder crashes right after answering
	// and a Byzantine node lies during consensus.
	data := testData(t, 3)
	c, err := NewCluster(data, Options{
		VCByzantine: map[int]vc.Byzantine{3: vc.ConsensusLiar},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	results := castAll(t, c, []int{1, -1, -1})
	// Crash the responder after the receipt was issued.
	c.CrashVC(0)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sets, err := c.RunVoteSetConsensus(ctx, map[int]bool{0: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PushToBB(sets); err != nil {
		t.Fatal(err)
	}
	if err := c.RunTrustees(); err != nil {
		t.Fatal(err)
	}
	voteSet, err := c.Reader.VoteSet()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, vb := range voteSet {
		if vb.Serial == results[0].Serial && string(vb.Code) == string(results[0].Code) {
			found = true
		}
	}
	if !found {
		t.Fatal("receipt issued but vote not in the published set (safety violation)")
	}
	res, err := c.Reader.Result()
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, res, []int64{0, 1, 0})
}

func TestLivenessPatientVoterBlacklistsCrashedNodes(t *testing.T) {
	// Theorem 1's mechanism: a [d]-patient voter retries and succeeds as
	// long as one honest VC node is reachable among her attempts.
	data := testData(t, 1)
	c, err := NewCluster(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	// Crash one node (= fv): the voter may hit it first, must recover.
	c.CrashVC(1)

	services := make([]voter.Service, len(c.VCs))
	for i, n := range c.VCs {
		services[i] = n
	}
	cl := &voter.Client{
		Ballot:   c.Data.Ballots[0],
		Services: services,
		Patience: 400 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := cl.Cast(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts > len(c.VCs) {
		t.Fatalf("voter needed %d attempts for %d nodes", res.Attempts, len(c.VCs))
	}
}

func TestMajorityReaderDefeatsLyingBB(t *testing.T) {
	// Runs on the sim harness: inter-VC latency is virtual-time events, so
	// the test cannot flake on wall-clock timer scheduling under load.
	data := testData(t, 3)
	drv := sim.New(sim.Config{Start: data.Manifest.VotingStart.Add(time.Minute)})
	c, err := NewCluster(data, Options{Sim: drv, LyingBB: map[int]bool{1: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	stop := drv.Spin()
	defer stop()
	castAll(t, c, []int{0, 0, 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := c.RunPipeline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The reader result must be the honest one despite the liar.
	wantCounts(t, res, []int64{2, 1, 0})

	// Reading the lying node directly shows corrupted data — proving the
	// majority reader did real work. Wait for its publish first: RunTrustees
	// deliberately skips lying nodes, so a direct read races the node's
	// background combine worker.
	direct, err := c.BBs[1].WaitResult(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Counts[0] == res.Counts[0] && direct.Counts[1] == res.Counts[1] {
		t.Fatal("lying BB returned honest data; test is vacuous")
	}
}

func TestTalliesAreDeterministicAcrossBBNodes(t *testing.T) {
	data := testData(t, 4)
	c, err := NewCluster(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	castAll(t, c, []int{2, 2, 2, 0})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := c.RunPipeline(ctx); err != nil {
		t.Fatal(err)
	}
	var ref *bb.Result
	for i, n := range c.BBs {
		res, err := n.Result()
		if err != nil {
			t.Fatalf("bb %d: %v", i, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		for j := range ref.Counts {
			if res.Counts[j] != ref.Counts[j] {
				t.Fatalf("bb %d disagrees on counts", i)
			}
		}
	}
	wantCounts(t, ref, []int64{1, 0, 3})
}

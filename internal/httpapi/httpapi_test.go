package httpapi

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"ddemos/internal/auditor"
	"ddemos/internal/bb"
	"ddemos/internal/core"
	"ddemos/internal/ea"
	"ddemos/internal/sim"
	"ddemos/internal/trustee"
	"ddemos/internal/voter"
)

// TestHTTPDeploymentEndToEnd runs a full election where voters, the vote-set
// push, the trustees and the auditor all go through the HTTP layer — the
// exact plumbing the cmd/ tools use (inter-VC stays on the simulated
// network; cmd/ddemos-vc swaps in TCP, which transport tests cover). The
// inter-VC network runs on the sim harness so delivery timing cannot flake
// under parallel test load.
func TestHTTPDeploymentEndToEnd(t *testing.T) {
	start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	data, err := ea.Setup(ea.Params{
		ElectionID:  "http-test",
		Options:     []string{"yes", "no"},
		NumBallots:  6,
		NumVC:       4,
		NumBB:       3,
		NumTrustees: 3,
		VotingStart: start,
		VotingEnd:   start.Add(time.Hour),
		Seed:        []byte("http-test"),
	})
	if err != nil {
		t.Fatal(err)
	}
	drv := sim.New(sim.Config{Start: start.Add(time.Minute)})
	cluster, err := core.NewCluster(data, core.Options{Sim: drv})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	stopSim := drv.Spin()
	defer stopSim()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// VC nodes behind HTTP.
	var services []voter.Service
	for _, n := range cluster.VCs {
		srv := httptest.NewServer(VCHandler(n))
		defer srv.Close()
		services = append(services, &VCClient{BaseURL: srv.URL})
	}
	// BB nodes behind HTTP.
	var apis []bb.API
	var boards []bb.Submitter
	for _, n := range cluster.BBs {
		srv := httptest.NewServer(BBHandler(n))
		defer srv.Close()
		c := &BBClient{BaseURL: srv.URL}
		apis = append(apis, c.API(ctx))
		boards = append(boards, c.Submitter(ctx))
	}
	reader := bb.NewReader(apis)
	votes := []int{0, 1, 0, 0}
	results := make([]*voter.CastResult, len(votes))
	for i, opt := range votes {
		cl := &voter.Client{Ballot: data.Ballots[i], Services: services, Patience: 10 * time.Second}
		res, err := cl.Cast(ctx, opt)
		if err != nil {
			t.Fatalf("voter %d over http: %v", i, err)
		}
		results[i] = res
	}

	// Invalid submissions get clean HTTP errors.
	badClient := services[0]
	if _, err := badClient.SubmitVote(ctx, 999, []byte("nope")); err == nil {
		t.Fatal("bad vote must fail over http")
	}

	// Close polls, consensus in-process, push over HTTP.
	sets, err := cluster.RunVoteSetConsensus(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range cluster.VCs {
		if err := errors.Join(bb.Push(n, sets[i], boards)...); err != nil {
			t.Fatalf("vc %d push: %v", i, err)
		}
	}

	// Trustees read + post over HTTP.
	for i := range cluster.Trustees {
		tr, err := trustee.New(data.Trustees[i])
		if err != nil {
			t.Fatal(err)
		}
		errs, err := tr.PublishTo(reader, boards)
		if err != nil {
			t.Fatal(err)
		}
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("trustee %d post: %v", i, err)
		}
	}

	// Combination runs in each replica's background worker: a post being
	// accepted does not mean the result exists yet.
	for i, n := range cluster.BBs {
		if _, err := n.WaitResult(ctx); err != nil {
			t.Fatalf("bb %d did not publish a result: %v", i, err)
		}
	}

	// Result + voter verification + audit, all through the HTTP reader.
	result, err := reader.Result()
	if err != nil {
		t.Fatal(err)
	}
	if result.Counts[0] != 3 || result.Counts[1] != 1 {
		t.Fatalf("counts = %v", result.Counts)
	}
	cl := &voter.Client{Ballot: data.Ballots[0], Services: services}
	if err := cl.Verify(reader, results[0]); err != nil {
		t.Fatalf("voter verify over http: %v", err)
	}
	report, err := auditor.Audit(reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("audit over http failed: %v", report.Failures)
	}
}

// TestMixedLocalAndHTTPReaderMajority is the transport-level regression
// test for the reader bucketing fix: a Reader over one in-process node and
// one HTTP client serving the *same* replica state must count the two
// replies as agreeing even though the HTTP reply's big.Ints went through a
// gob decode (which normalizes zero values to a representation
// reflect.DeepEqual distinguishes from arithmetic results). With the third
// replica down, fb+1 = 2 identical replies are required — before the fix
// this exact deployment shape spuriously returned ErrNoMajority.
func TestMixedLocalAndHTTPReaderMajority(t *testing.T) {
	start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	data, err := ea.Setup(ea.Params{
		ElectionID:  "mixed-reader-test",
		Options:     []string{"yes", "no"},
		NumBallots:  3,
		NumVC:       4,
		NumBB:       3,
		NumTrustees: 3,
		VotingStart: start,
		VotingEnd:   start.Add(time.Hour),
		Seed:        []byte("mixed-reader-test"),
	})
	if err != nil {
		t.Fatal(err)
	}
	drv := sim.New(sim.Config{Start: start.Add(time.Minute)})
	cluster, err := core.NewCluster(data, core.Options{Sim: drv})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	stopSim := drv.Spin()
	defer stopSim()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var services []voter.Service
	for _, n := range cluster.VCs {
		services = append(services, n)
	}
	// Everyone votes "yes": the "no" tally is a computed zero, the exact
	// value whose in-memory and gob-decoded representations diverge.
	for i := 0; i < 3; i++ {
		cl := &voter.Client{Ballot: data.Ballots[i], Services: services, Patience: 10 * time.Second}
		if _, err := cl.Cast(ctx, 0); err != nil {
			t.Fatalf("voter %d: %v", i, err)
		}
	}
	if _, err := cluster.RunPipeline(ctx); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(BBHandler(cluster.BBs[1]))
	defer srv.Close()
	dead := httptest.NewServer(BBHandler(cluster.BBs[2]))
	dead.Close() // connection refused: the "down replica" of the triple

	mixed := bb.NewReader([]bb.API{
		cluster.BBs[0],
		(&BBClient{BaseURL: srv.URL}).API(ctx),
		(&BBClient{BaseURL: dead.URL}).API(ctx),
	})
	res, err := mixed.Result()
	if err != nil {
		t.Fatalf("mixed local/HTTP majority read: %v", err)
	}
	if res.Counts[0] != 3 || res.Counts[1] != 0 {
		t.Fatalf("counts = %v", res.Counts)
	}
	if _, err := mixed.VoteSet(); err != nil {
		t.Fatalf("mixed vote-set read: %v", err)
	}
	if _, err := mixed.Cast(); err != nil {
		t.Fatalf("mixed cast read: %v", err)
	}
}

// TestClientTimeoutsSeparateDialFromRequest verifies the two-deadline
// client model: a dead address fails within the dial budget (not the whole
// request budget), and a caller context that is already cancelled aborts a
// request immediately.
func TestClientTimeoutsSeparateDialFromRequest(t *testing.T) {
	// 192.0.2.0/24 is TEST-NET-1: packets go nowhere, so the dial hangs
	// until its own timeout — exactly the recovery-retry pile-up scenario.
	dead := &VCClient{
		BaseURL:  "http://192.0.2.1:9",
		Timeouts: Timeouts{Dial: 150 * time.Millisecond, Request: 30 * time.Second},
	}
	start := time.Now()
	_, err := dead.SubmitVote(context.Background(), 1, []byte("code"))
	if err == nil {
		t.Fatal("vote against a dead address must fail")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dial failure took %v: dial timeout did not apply", elapsed)
	}

	deadBB := &BBClient{
		BaseURL:  "http://192.0.2.1:9",
		Timeouts: Timeouts{Dial: 150 * time.Millisecond, Request: 30 * time.Second},
	}
	start = time.Now()
	if _, err := deadBB.Read(context.Background(), bb.KindManifest); err == nil {
		t.Fatal("read against a dead address must fail")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("bb dial failure took %v: dial timeout did not apply", elapsed)
	}

	// A caller context deadline earlier than the request budget wins.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dead.SubmitVote(ctx, 1, []byte("code")); err == nil {
		t.Fatal("cancelled context must abort the vote")
	}
	cancelledBB := &BBClient{BaseURL: "http://192.0.2.1:9",
		Timeouts: Timeouts{Dial: time.Second, Request: time.Second}}
	if _, err := cancelledBB.Read(ctx, bb.KindManifest); err == nil {
		t.Fatal("cancelled context must abort bb reads")
	}
}

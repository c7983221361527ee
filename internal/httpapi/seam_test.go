package httpapi

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"ddemos/internal/bb"
	"ddemos/internal/core"
	"ddemos/internal/ea"
	"ddemos/internal/journal"
	"ddemos/internal/sim"
	"ddemos/internal/voter"
)

// TestSubmitterSeamInProcessAndHTTP runs the board's write side — bb.Push
// for every VC node, then trustee.PublishTo for every trustee — once into an
// in-process node and once through BBClient.Submitter into an HTTP server
// over a node opened from the same init data. Both replicas must reach the
// same StateHash and publish byte-identical Results. A body under a kind
// that is not a submission, and a submission the node refuses, fail with
// bb.ErrBadSubmission on both paths.
func TestSubmitterSeamInProcessAndHTTP(t *testing.T) {
	start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	data, err := ea.Setup(ea.Params{
		ElectionID: "seam-test", Options: []string{"yes", "no", "abstain"},
		NumBallots: 6, NumVC: 4, NumBB: 1, NumTrustees: 3,
		VotingStart: start, VotingEnd: start.Add(time.Hour), Seed: []byte("seam-test"),
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

	services := make([]voter.Service, len(cluster.VCs))
	for i, n := range cluster.VCs {
		services[i] = n
	}
	for i, opt := range []int{0, 2, 1, 0} {
		cl := &voter.Client{Ballot: data.Ballots[i], Services: services, Patience: 10 * time.Second}
		if _, err := cl.Cast(ctx, opt); err != nil {
			t.Fatalf("voter %d: %v", i, err)
		}
	}
	sets, err := cluster.RunVoteSetConsensus(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}

	direct, err := bb.Open(data.BB, "", journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	served, err := bb.Open(data.BB, "", journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(BBHandler(served))
	defer srv.Close()
	client := &BBClient{BaseURL: srv.URL}
	paths := []struct {
		name   string
		board  bb.Submitter
		reader *bb.Reader
	}{
		{"in-process", direct, bb.NewReader([]bb.API{direct})},
		{"http", client.Submitter(ctx), bb.NewReader([]bb.API{client.API(ctx)})},
	}

	for _, p := range paths {
		for i, n := range cluster.VCs {
			if err := errors.Join(bb.Push(n, sets[i], []bb.Submitter{p.board})...); err != nil {
				t.Fatalf("%s: vc %d push: %v", p.name, i, err)
			}
		}
		for i, tr := range cluster.Trustees {
			errs, err := tr.PublishTo(p.reader, []bb.Submitter{p.board})
			if err := errors.Join(append(errs, err)...); err != nil {
				t.Fatalf("%s: trustee %d: %v", p.name, i, err)
			}
		}
	}
	for _, n := range []*bb.Node{direct, served} {
		if _, err := n.WaitResult(ctx); err != nil {
			t.Fatal(err)
		}
	}

	if direct.StateHash() != served.StateHash() {
		t.Fatal("the in-process and HTTP replicas reached different states")
	}
	want, err := direct.Read(bb.KindResult)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.Read(ctx, bb.KindResult)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the HTTP replica published a Result that differs from the in-process one")
	}

	unsigned := bb.EncodeSetSubmission(&bb.VoteSetSubmission{VCIndex: 0, Set: sets[0]})
	for _, p := range paths {
		if err := p.board.Submit(bb.KindResult, unsigned); !errors.Is(err, bb.ErrBadSubmission) {
			t.Fatalf("%s: a vote set submitted as a Result: got %v, want bb.ErrBadSubmission", p.name, err)
		}
		if err := p.board.Submit(bb.KindSetSubmission, unsigned); !errors.Is(err, bb.ErrBadSubmission) {
			t.Fatalf("%s: an unsigned vote set: got %v, want bb.ErrBadSubmission", p.name, err)
		}
	}
}

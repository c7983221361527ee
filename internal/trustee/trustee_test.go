package trustee_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"ddemos/internal/bb"
	"ddemos/internal/core"
	"ddemos/internal/ea"
	"ddemos/internal/trustee"
	"ddemos/internal/voter"
)

// setup runs an election through the push-to-BB phase, leaving the trustee
// phase to the tests.
func setup(t *testing.T, votes []int) (*core.Cluster, *ea.ElectionData) {
	t.Helper()
	start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	data, err := ea.Setup(ea.Params{
		ElectionID:  "trustee-test",
		Options:     []string{"a", "b", "c"},
		NumBallots:  len(votes),
		NumVC:       4,
		NumBB:       3,
		NumTrustees: 5, // ht defaults to 3
		VotingStart: start,
		VotingEnd:   start.Add(time.Hour),
		Seed:        []byte("trustee-test"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := core.NewCluster(data, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Stop)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	services := make([]voter.Service, len(cluster.VCs))
	for i, n := range cluster.VCs {
		services[i] = n
	}
	for i, opt := range votes {
		if opt < 0 {
			continue
		}
		cl := &voter.Client{Ballot: data.Ballots[i], Services: services, Patience: 10 * time.Second}
		if _, err := cl.Cast(ctx, opt); err != nil {
			t.Fatal(err)
		}
	}
	sets, err := cluster.RunVoteSetConsensus(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.PushToBB(sets); err != nil {
		t.Fatal(err)
	}
	return cluster, data
}

// publish runs PublishTo and folds the boards' refusals into one error.
func publish(tr *trustee.Trustee, reader *bb.Reader, boards []bb.Submitter) error {
	errs, err := tr.PublishTo(reader, boards)
	if err != nil {
		return err
	}
	return errors.Join(errs...)
}

// waitResults blocks until every honest BB node publishes its result;
// combination runs in a background worker, so PublishTo returning does not
// mean the results exist yet.
func waitResults(t *testing.T, cluster *core.Cluster) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, node := range cluster.BBs {
		if node.Lying {
			continue
		}
		if _, err := node.WaitResult(ctx); err != nil {
			t.Fatalf("bb %d did not publish a result: %v", i, err)
		}
	}
}

func TestThresholdOfTrusteesSuffices(t *testing.T) {
	// Only ht = 3 of 5 trustees participate: the result must still publish.
	cluster, data := setup(t, []int{0, 2, 2, -1})
	for _, i := range []int{4, 0, 2} {
		tr, err := trustee.New(data.Trustees[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := publish(tr, cluster.Reader, cluster.Boards()); err != nil {
			t.Fatal(err)
		}
	}
	waitResults(t, cluster)
	res, err := cluster.Reader.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[0] != 1 || res.Counts[2] != 2 {
		t.Fatalf("counts = %v", res.Counts)
	}
}

func TestBelowThresholdRevealsNothing(t *testing.T) {
	// ht-1 posts: no result may appear (and no partial tally leaks).
	cluster, data := setup(t, []int{1, 1})
	for _, i := range []int{0, 1} {
		tr, err := trustee.New(data.Trustees[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := publish(tr, cluster.Reader, cluster.Boards()); err != nil {
			t.Fatal(err)
		}
	}
	for i, node := range cluster.BBs {
		if _, err := node.Result(); err == nil {
			t.Fatalf("bb %d published a result with ht-1 trustee posts", i)
		}
	}
}

func TestTrusteePostIsDeterministic(t *testing.T) {
	// The same trustee computing twice must produce identical posts (no
	// hidden randomness: everything derives from init shares + BB data).
	cluster, data := setup(t, []int{0, -1})
	tr, err := trustee.New(data.Trustees[0])
	if err != nil {
		t.Fatal(err)
	}
	p1, err := tr.ComputePost(cluster.Reader)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := tr.ComputePost(cluster.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if bb.HashPost("trustee-test", p1) != bb.HashPost("trustee-test", p2) {
		t.Fatal("trustee post not deterministic")
	}
}

func TestGarbageTrusteeIsExcluded(t *testing.T) {
	cluster, data := setup(t, []int{1, 0, 1})
	for i := 0; i < 4; i++ { // 4 posts: 1 garbage + 3 honest >= ht
		tr, err := trustee.New(data.Trustees[i])
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			tr.SetByzantine(trustee.GarbageShares)
		}
		if err := publish(tr, cluster.Reader, cluster.Boards()); err != nil {
			t.Fatal(err)
		}
	}
	waitResults(t, cluster)
	res, err := cluster.Reader.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[0] != 1 || res.Counts[1] != 2 {
		t.Fatalf("counts = %v", res.Counts)
	}
	// No trace of the garbage shares: the published bytes are exactly what
	// honest trustees alone publish.
	got, err := cluster.Reader.Read(bb.KindResult)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cleanResult(t, cluster, data, []int{1, 2, 3})) {
		t.Fatal("result published beside a garbage trustee differs from a clean run's")
	}
}

// cleanResult publishes the election on a fresh replica from the given
// honest trustees' posts alone and returns its result bytes.
func cleanResult(t *testing.T, cluster *core.Cluster, data *ea.ElectionData, trustees []int) []byte {
	t.Helper()
	node, err := bb.NewNode(data.BB)
	if err != nil {
		t.Fatal(err)
	}
	set, err := cluster.BBs[0].VoteSet()
	if err != nil {
		t.Fatal(err)
	}
	for i, vcn := range cluster.VCs {
		if err := node.SubmitVoteSet(i, set, vcn.SignVoteSet(set)); err != nil {
			t.Fatal(err)
		}
		if err := node.SubmitMskShare(vcn.MskShare()); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range trustees {
		tr, err := trustee.New(data.Trustees[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := publish(tr, cluster.Reader, []bb.Submitter{node}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := node.WaitResult(ctx); err != nil {
		t.Fatal(err)
	}
	b, err := node.Read(bb.KindResult)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

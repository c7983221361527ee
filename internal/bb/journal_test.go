package bb_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ddemos/internal/bb"
	"ddemos/internal/ea"
	"ddemos/internal/journal"
	"ddemos/internal/trustee"
	"ddemos/internal/vc"
)

// honestPosts computes every trustee's honest post once.
func honestPosts(t *testing.T, reader *bb.Reader, data *ea.ElectionData, nt int) []*bb.TrusteePost {
	t.Helper()
	posts := make([]*bb.TrusteePost, nt)
	for i := range posts {
		tr, err := trustee.New(data.Trustees[i])
		if err != nil {
			t.Fatal(err)
		}
		if posts[i], err = tr.ComputePost(reader); err != nil {
			t.Fatal(err)
		}
	}
	return posts
}

// TestBBJournalRecoverMidPosting is the tentpole acceptance scenario: a
// journaled replica hard-stopped after accepting ht-1 trustee posts must
// recover its whole publish-phase state from disk, accept the remaining
// post, and publish a result canonically identical to a never-crashed
// replica's. Recovering the directory twice must be a StateHash fixpoint.
func TestBBJournalRecoverMidPosting(t *testing.T) {
	cluster, data := publishSetup(t, []int{0, 1, 1}, 3) // ht = 2
	posts := honestPosts(t, cluster.Reader, data, 3)
	dir := t.TempDir()

	node, err := bb.NewNode(data.BB)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.RecoverWithOptions(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	feedBBState(t, cluster, node)
	if err := node.SubmitTrusteePost(posts[0]); err != nil { // ht-1 = 1 post
		t.Fatal(err)
	}
	if err := node.Close(); err != nil { // hard stop
		t.Fatal(err)
	}
	if err := node.SubmitTrusteePost(posts[1]); err == nil {
		t.Fatal("closed node accepted a post")
	}

	recovered, err := bb.NewNode(data.BB)
	if err != nil {
		t.Fatal(err)
	}
	if err := recovered.RecoverWithOptions(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := recovered.Cast(); err != nil {
		t.Fatalf("recovered node lost the cast data: %v", err)
	}
	// The journaled post survives: resubmitting it is a duplicate ack, and
	// one more post reaches ht.
	if err := recovered.SubmitTrusteePost(posts[0]); err != nil {
		t.Fatalf("recovered node rejected its own journaled post: %v", err)
	}
	if err := recovered.SubmitTrusteePost(posts[1]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := recovered.WaitResult(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Never-crashed replica over the same election.
	baseline := cluster.BBs[1]
	for _, p := range posts[:2] {
		if err := baseline.SubmitTrusteePost(p); err != nil {
			t.Fatal(err)
		}
	}
	bres, err := baseline.WaitResult(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalResult(res) != canonicalResult(bres) {
		t.Fatal("recovered replica's result diverges from the never-crashed replica")
	}

	// Recover-twice fixpoint: the published result was journaled, so a
	// second recovery reproduces the exact post-publication state.
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := bb.NewNode(data.BB)
	if err != nil {
		t.Fatal(err)
	}
	if err := again.RecoverWithOptions(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	if again.StateHash() != recovered.StateHash() {
		t.Fatal("recover-twice is not a StateHash fixpoint")
	}
	if ares, err := again.Result(); err != nil {
		t.Fatalf("second recovery lost the result: %v", err)
	} else if canonicalResult(ares) != canonicalResult(res) {
		t.Fatal("second recovery changed the result")
	}
	_ = again.Close()
}

// feedBBState mirrors publishSetup's PushToBB for a standalone node.
func feedBBState(t *testing.T, cluster interface {
	VC(i int) *vc.Node
	BB(i int) *bb.Node
}, node *bb.Node) {
	t.Helper()
	set, err := cluster.BB(0).VoteSet()
	if err != nil {
		t.Fatal(err)
	}
	man, err := cluster.BB(0).Manifest()
	if err != nil {
		t.Fatal(err)
	}
	for vi := 0; vi < man.FaultyVC()+1; vi++ {
		if err := node.SubmitVoteSet(vi, set, cluster.VC(vi).SignVoteSet(set)); err != nil {
			t.Fatal(err)
		}
	}
	for vi := 0; vi < man.ReceiptThreshold(); vi++ {
		if err := node.SubmitMskShare(cluster.VC(vi).MskShare()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := node.Cast(); err != nil {
		t.Fatalf("node did not publish cast data: %v", err)
	}
}

// TestBBJournalTornTail verifies recovery tolerates a torn WAL tail (the
// crash-mid-write case): the journal replays its intact prefix and the
// node finishes the election after resubmission.
func TestBBJournalTornTail(t *testing.T) {
	cluster, data := publishSetup(t, []int{0, 1, 1}, 3)
	posts := honestPosts(t, cluster.Reader, data, 3)
	dir := t.TempDir()

	node, err := bb.NewNode(data.BB)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.RecoverWithOptions(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	feedBBState(t, cluster, node)
	if err := node.SubmitTrusteePost(posts[0]); err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail of the one lane's active segment mid-record.
	wal := filepath.Join(dir, "wal-0.000001")
	info, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() < 16 {
		t.Fatalf("wal unexpectedly small: %d bytes", info.Size())
	}
	if err := os.Truncate(wal, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	recovered, err := bb.NewNode(data.BB)
	if err != nil {
		t.Fatal(err)
	}
	if err := recovered.RecoverWithOptions(dir, journal.Options{}); err != nil {
		t.Fatalf("torn-tail recovery failed: %v", err)
	}
	t.Cleanup(func() { _ = recovered.Close() })
	// Whatever the tear destroyed, resubmission restores it; the node must
	// still reach a correct result.
	feedBBState(t, cluster, recovered)
	for _, p := range posts[:2] {
		if err := recovered.SubmitTrusteePost(p); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := recovered.WaitResult(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[0] != 1 || res.Counts[1] != 2 {
		t.Fatalf("counts = %v", res.Counts)
	}
}

// TestBBJournalResultRecordLoss covers the crash window between result
// installation and its journal append: the record is best-effort, so a
// recovery that replays the posts but no result must re-derive the same
// result by recombining — canonically, because the commitments are
// perfectly binding.
func TestBBJournalResultRecordLoss(t *testing.T) {
	cluster, data := publishSetup(t, []int{0, 1, 1}, 3)
	posts := honestPosts(t, cluster.Reader, data, 3)

	mem := journal.NewMemJournal(journal.Options{})
	node, err := bb.NewNode(data.BB)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.RecoverBackend(mem, journal.PolicyAvailable); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	gated := false
	node.CombineGate = func() {
		if !gated {
			gated = true
			close(entered)
		}
		<-release
	}
	feedBBState(t, cluster, node)
	for _, p := range posts[:2] {
		if err := node.SubmitTrusteePost(p); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("combine worker never started")
	}
	// Posts are journaled; now every further append fails, so the result
	// record is lost while the in-memory install still happens.
	mem.SetAppendError(errors.New("disk full"))
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := node.WaitResult(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if node.Metrics().JournalErrors == 0 {
		t.Fatal("lost result append was not counted")
	}

	// "Crash" and recover from the same backend: no result record replays.
	mem.SetAppendError(nil)
	recovered, err := bb.NewNode(data.BB)
	if err != nil {
		t.Fatal(err)
	}
	if err := recovered.RecoverBackend(mem, journal.PolicyAvailable); err != nil {
		t.Fatal(err)
	}
	rres, err := recovered.WaitResult(ctx)
	if err != nil {
		t.Fatalf("recovered node did not recombine a result: %v", err)
	}
	if canonicalResult(rres) != canonicalResult(res) {
		t.Fatal("recombined result diverges from the lost one")
	}
}

// TestBBJournalStrictRefusal pins the Strict ack policy: an accepted
// submission whose record fails to land is refused, and the retry (the
// duplicate fast path) re-attempts the append until it sticks.
func TestBBJournalStrictRefusal(t *testing.T) {
	cluster, data := publishSetup(t, []int{0, 1, 1}, 3)
	posts := honestPosts(t, cluster.Reader, data, 3)
	man := &data.BB.Manifest

	mem := journal.NewMemJournal(journal.Options{})
	node, err := bb.NewNode(data.BB)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.RecoverBackend(mem, journal.PolicyStrict); err != nil {
		t.Fatal(err)
	}
	set, err := cluster.BBs[0].VoteSet()
	if err != nil {
		t.Fatal(err)
	}

	mem.SetAppendError(errors.New("disk full"))
	if err := node.SubmitVoteSet(0, set, cluster.VCs[0].SignVoteSet(set)); err == nil {
		t.Fatal("strict node acked a vote set whose record did not land")
	}
	if err := node.SubmitMskShare(cluster.VCs[0].MskShare()); err == nil {
		t.Fatal("strict node acked an msk share whose record did not land")
	}
	// The submissions are installed in memory regardless — only the acks
	// were refused — so the retries go through the duplicate fast path.
	mem.SetAppendError(nil)
	before := mem.Records()
	if err := node.SubmitVoteSet(0, set, cluster.VCs[0].SignVoteSet(set)); err != nil {
		t.Fatalf("retry after journal recovery: %v", err)
	}
	if err := node.SubmitMskShare(cluster.VCs[0].MskShare()); err != nil {
		t.Fatalf("share retry after journal recovery: %v", err)
	}
	if mem.Records() != before+2 {
		t.Fatalf("retries appended %d records, want 2", mem.Records()-before)
	}

	// Same discipline for a trustee post, after publishing the cast data.
	for vi := 1; vi < man.FaultyVC()+1; vi++ {
		if err := node.SubmitVoteSet(vi, set, cluster.VCs[vi].SignVoteSet(set)); err != nil {
			t.Fatal(err)
		}
	}
	for vi := 1; vi < man.ReceiptThreshold(); vi++ {
		if err := node.SubmitMskShare(cluster.VCs[vi].MskShare()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := node.Cast(); err != nil {
		t.Fatal(err)
	}
	mem.SetAppendError(errors.New("disk full"))
	if err := node.SubmitTrusteePost(posts[0]); err == nil {
		t.Fatal("strict node acked a post whose record did not land")
	}
	mem.SetAppendError(nil)
	if err := node.SubmitTrusteePost(posts[0]); err != nil {
		t.Fatalf("post retry after journal recovery: %v", err)
	}
}

// TestBBJournalBackendDifferential runs one seeded publish phase on a
// memory-only replica and on journaled replicas at 1, 2 and 4 lanes, and
// requires identical canonical results live, plus identical StateHashes
// after the journaled replicas recover from disk.
func TestBBJournalBackendDifferential(t *testing.T) {
	cluster, data := publishSetup(t, []int{0, 1, 1, 0, -1, 1}, 3)
	posts := honestPosts(t, cluster.Reader, data, 3)

	memNode, err := bb.NewNode(data.BB)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []*bb.Node{memNode}
	dirs := map[string]journal.Options{}
	for _, lanes := range []int{1, 2, 4} {
		dir, opts := t.TempDir(), journal.Options{Pool: lanes}
		node, err := bb.NewNode(data.BB)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.RecoverWithOptions(dir, opts); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
		dirs[dir] = opts
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var want string
	for _, node := range nodes {
		feedBBState(t, cluster, node)
		for _, p := range posts {
			if err := node.SubmitTrusteePost(p); err != nil {
				t.Fatal(err)
			}
		}
		res, err := node.WaitResult(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = canonicalResult(res)
		} else if canonicalResult(res) != want {
			t.Fatal("backends diverged on the canonical result")
		}
	}
	// StateHash is backend-independent: all replicas hold the same state,
	// and recovery reproduces it bit-for-bit.
	wantHash := memNode.StateHash()
	for _, node := range nodes[1:] {
		if node.StateHash() != wantHash {
			t.Fatal("live StateHash differs across backends")
		}
		_ = node.Close()
	}
	for dir, opts := range dirs {
		rec, err := bb.NewNode(data.BB)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.RecoverWithOptions(dir, opts); err != nil {
			t.Fatal(err)
		}
		if rec.StateHash() != wantHash {
			t.Fatalf("recovered StateHash from %s (%d lanes) diverges", dir, opts.Pool)
		}
		_ = rec.Close()
	}
}

package bb_test

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ddemos/internal/bb"
	ddcore "ddemos/internal/core"
	"ddemos/internal/crypto/group"
	"ddemos/internal/crypto/zkp"
	"ddemos/internal/ea"
	"ddemos/internal/journal"
	"ddemos/internal/sig"
	"ddemos/internal/trustee"
	"ddemos/internal/voter"
)

// publishSetup runs an election up to (and including) the push-to-BB phase,
// leaving the trustee publish phase to the test.
func publishSetup(t *testing.T, votes []int, numTrustees int) (*ddcore.Cluster, *ea.ElectionData) {
	t.Helper()
	start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	data, err := ea.Setup(ea.Params{
		ElectionID:  "bb-combine-test",
		Options:     []string{"x", "y"},
		NumBallots:  len(votes),
		NumVC:       4,
		NumBB:       3,
		NumTrustees: numTrustees,
		VotingStart: start,
		VotingEnd:   start.Add(time.Hour),
		Seed:        []byte("bb-combine-test"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := ddcore.NewCluster(data, ddcore.Options{})
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
			t.Fatalf("voter %d: %v", i, err)
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

// TestCombineRunsOffLock pins the tentpole property of the publish-phase
// rebuild: the expensive combination runs in a background worker, so reads
// and further submissions complete while a combine attempt is in flight.
func TestCombineRunsOffLock(t *testing.T) {
	cluster, data := publishSetup(t, []int{0, 1, 1}, 3) // ht = 2
	node := cluster.BBs[0]

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	node.CombineGate = func() {
		once.Do(func() { close(entered) })
		<-release
	}

	posts := make([]*bb.TrusteePost, 3)
	for i := range posts {
		tr, err := trustee.New(data.Trustees[i])
		if err != nil {
			t.Fatal(err)
		}
		if posts[i], err = tr.ComputePost(cluster.Reader); err != nil {
			t.Fatal(err)
		}
	}
	if err := node.SubmitTrusteePost(posts[0]); err != nil {
		t.Fatal(err)
	}
	if err := node.SubmitTrusteePost(posts[1]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("combine worker never started")
	}

	// The worker is now parked inside a combine attempt. Every read and a
	// further submission must still complete promptly.
	done := make(chan error, 1)
	go func() {
		if _, err := node.VoteSet(); err != nil {
			done <- fmt.Errorf("vote set read: %w", err)
			return
		}
		if _, err := node.Cast(); err != nil {
			done <- fmt.Errorf("cast read: %w", err)
			return
		}
		done <- node.SubmitTrusteePost(posts[2])
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reads/submissions blocked behind an in-flight combine attempt")
	}
	if _, err := node.Result(); err == nil {
		t.Fatal("result published while the combine attempt was still gated")
	}

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := node.WaitResult(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[0] != 1 || res.Counts[1] != 2 {
		t.Fatalf("counts = %v", res.Counts)
	}
}

// TestBadSharesFallBackOncePerAttempt pins the one verification path at BB
// level: a garbage-share trustee whose post also carries bad proof shares
// (a bit final and a sum final, on top of GarbageShares' opening and tally
// shares) fails the single batch chunk of each attempt that uses it — one
// fallback per failed attempt, however many statements are bad; the
// per-element locator names them, blame pins that trustee alone, and the
// retry publishes exactly what a run without it publishes.
func TestBadSharesFallBackOncePerAttempt(t *testing.T) {
	cluster, data := publishSetup(t, []int{0, 1, 1, -1}, 3) // ht = 2
	posts := make([]*bb.TrusteePost, 3)
	for i := range posts {
		tr, err := trustee.New(data.Trustees[i])
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			tr.SetByzantine(trustee.GarbageShares)
		}
		if posts[i], err = tr.ComputePost(cluster.Reader); err != nil {
			t.Fatal(err)
		}
	}
	bad := posts[0]
	one := big.NewInt(1)
	pf := bad.Proofs[0]
	pf.Bits = append([]zkp.BitFinal(nil), pf.Bits...)
	pf.Bits[1].Z1 = group.AddScalar(pf.Bits[1].Z1, one)
	pf.Sum.Z = group.AddScalar(pf.Sum.Z, one)
	bad.Proofs[0] = pf
	hash := bb.HashPost(data.Manifest.ElectionID, bad)
	bad.Sig = sig.Sign(data.Trustees[0].Private, "ddemos/v1/trustee-post", hash[:])

	// run feeds the posts to a fresh replica behind a gate, which fixes the
	// schedule: attempt 1 starts with the first ht posts (no spare, so its
	// failure is inconclusive), attempt 2 sees every candidate and blames,
	// attempt 3 publishes.
	set, err := cluster.BBs[0].VoteSet()
	if err != nil {
		t.Fatal(err)
	}
	run := func(posts []*bb.TrusteePost) (*bb.Node, *bb.Result) {
		node, err := bb.NewNode(data.BB)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		for vi := 0; vi < data.Manifest.FaultyVC()+1; vi++ {
			if err := node.SubmitVoteSet(vi, set, cluster.VCs[vi].SignVoteSet(set)); err != nil {
				t.Fatal(err)
			}
		}
		for vi := 0; vi < data.Manifest.ReceiptThreshold(); vi++ {
			if err := node.SubmitMskShare(cluster.VCs[vi].MskShare()); err != nil {
				t.Fatal(err)
			}
		}
		entered := make(chan struct{}, 8) // one token per attempt; three at most
		release := make(chan struct{})
		node.CombineGate = func() {
			entered <- struct{}{}
			<-release
		}
		for i, p := range posts {
			if err := node.SubmitTrusteePost(p); err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				<-entered // attempt 1 has taken its candidates
			}
		}
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		res, err := node.WaitResult(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return node, res
	}

	node, got := run(posts)
	snap := node.Metrics()
	if snap.CombineAttempts != 3 || snap.BatchFallbacks != 2 {
		t.Fatalf("attempts=%d fallbacks=%d, want 3 attempts and one fallback per failed one", snap.CombineAttempts, snap.BatchFallbacks)
	}
	if blamed := node.BlamedTrustees(); len(blamed) != 1 || blamed[0] != 0 {
		t.Fatalf("blamed = %v, want [0]", blamed)
	}
	clean, want := run(posts[1:])
	if fb := clean.Metrics().BatchFallbacks; fb != 0 {
		t.Fatalf("clean run fell back %d times", fb)
	}
	if canonicalResult(got) != canonicalResult(want) {
		t.Fatal("result after blame differs from the clean run")
	}
}

// canonicalResult renders everything subset-independent about a Result.
// The commitments are perfectly binding, so honest nodes must agree on all
// of it no matter which trustee subsets their combines used.
func canonicalResult(res *bb.Result) string {
	c := *res
	c.Trustees = nil
	return fmt.Sprintf("%v", c)
}

// TestByzantineTrusteeSweep drives 100 seeded publish phases against fresh
// BB replica sets, rotating garbage-share trustees and an equivocating
// trustee (honest post to even nodes, corrupted post to odd nodes) through
// every position and shuffling submission order. Every honest node must
// publish the same correct result, blame only genuinely bad trustees, and
// converge in a bounded number of combine attempts (linear blame, not the
// seed's exponential subset search).
func TestByzantineTrusteeSweep(t *testing.T) {
	votes := []int{0, 1, 1, 0, -1, 1}
	const nt = 5 // ht = 3
	cluster, data := publishSetup(t, votes, nt)
	set, err := cluster.BBs[0].VoteSet()
	if err != nil {
		t.Fatal(err)
	}
	man := &data.BB.Manifest

	trustees := make([]*trustee.Trustee, nt)
	honest := make([]*bb.TrusteePost, nt)
	garbage := make([]*bb.TrusteePost, nt)
	for i := range trustees {
		tr, err := trustee.New(data.Trustees[i])
		if err != nil {
			t.Fatal(err)
		}
		trustees[i] = tr
		if honest[i], err = tr.ComputePost(cluster.Reader); err != nil {
			t.Fatal(err)
		}
		tr.SetByzantine(trustee.GarbageShares)
		if garbage[i], err = tr.ComputePost(cluster.Reader); err != nil {
			t.Fatal(err)
		}
		tr.SetByzantine(trustee.Honest)
	}

	// freshNodes boots a replica set and feeds it the agreed vote set and
	// enough master-key shares to publish the cast data. Node 0's durability
	// rotates by seed — memory-only, one journal lane, two lanes — so the
	// Byzantine mixes also exercise every journaling path.
	journalDir := t.TempDir()
	freshNodes := func(seed int) []*bb.Node {
		nodes := make([]*bb.Node, 3)
		for ni := range nodes {
			node, err := bb.NewNode(data.BB)
			if err != nil {
				t.Fatal(err)
			}
			if ni == 0 && seed%3 != 0 {
				dir := filepath.Join(journalDir, fmt.Sprintf("seed-%d", seed))
				jopts := journal.Options{Pool: seed % 3}
				if err := node.RecoverWithOptions(dir, jopts); err != nil {
					t.Fatal(err)
				}
			}
			for vi := 0; vi < man.FaultyVC()+1; vi++ {
				if err := node.SubmitVoteSet(vi, set, cluster.VCs[vi].SignVoteSet(set)); err != nil {
					t.Fatal(err)
				}
			}
			for vi := 0; vi < man.ReceiptThreshold(); vi++ {
				if err := node.SubmitMskShare(cluster.VCs[vi].MskShare()); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := node.Cast(); err != nil {
				t.Fatalf("fresh node did not publish cast data: %v", err)
			}
			nodes[ni] = node
		}
		return nodes
	}

	seeds := 100
	if testing.Short() {
		seeds = 12
	}
	var want string
	for seed := 0; seed < seeds; seed++ {
		rnd := rand.New(rand.NewSource(int64(seed))) //nolint:gosec // deterministic test
		bad := map[int]bool{}
		equiv := -1
		switch seed % 3 {
		case 0: // one garbage trustee
			bad[seed%nt] = true
		case 1: // two garbage trustees
			bad[seed%nt] = true
			bad[(seed+2)%nt] = true
		case 2: // one garbage + one equivocator
			bad[seed%nt] = true
			equiv = (seed + 2) % nt
		}

		nodes := freshNodes(seed)
		order := rnd.Perm(nt)
		for _, ti := range order {
			switch {
			case ti == equiv:
				trustees[ti].SetByzantine(trustee.Equivocate)
				if err := trustees[ti].PublishTo(cluster.Reader, nodes); err != nil {
					t.Fatalf("seed %d: equivocator publish: %v", seed, err)
				}
				trustees[ti].SetByzantine(trustee.Honest)
			case bad[ti]:
				for _, node := range nodes {
					if err := node.SubmitTrusteePost(garbage[ti]); err != nil {
						t.Fatalf("seed %d: garbage post rejected at ingress: %v", seed, err)
					}
				}
			default:
				for _, node := range nodes {
					if err := node.SubmitTrusteePost(honest[ti]); err != nil {
						t.Fatalf("seed %d: honest post: %v", seed, err)
					}
				}
			}
		}

		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		for ni, node := range nodes {
			res, err := node.WaitResult(ctx)
			if err != nil {
				t.Fatalf("seed %d node %d: no result: %v", seed, ni, err)
			}
			if res.Counts[0] != 2 || res.Counts[1] != 3 {
				t.Fatalf("seed %d node %d: counts = %v", seed, ni, res.Counts)
			}
			got := canonicalResult(res)
			if want == "" {
				want = got
			} else if got != want {
				t.Fatalf("seed %d node %d: result diverges from other honest nodes", seed, ni)
			}
			for _, blamedIdx := range node.BlamedTrustees() {
				if !bad[blamedIdx] && blamedIdx != equiv {
					t.Fatalf("seed %d node %d: honest trustee %d blamed", seed, ni, blamedIdx)
				}
				if blamedIdx == equiv && ni%2 == 0 {
					t.Fatalf("seed %d node %d: equivocator blamed on a node that saw only its honest post", seed, ni)
				}
			}
			if att := node.Metrics().CombineAttempts; att > 12 {
				t.Fatalf("seed %d node %d: %d combine attempts (blame should bound retries)", seed, ni, att)
			}
		}
		cancel()
		for _, node := range nodes {
			if err := node.Close(); err != nil {
				t.Fatalf("seed %d: closing node: %v", seed, err)
			}
		}
	}
}

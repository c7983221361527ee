package bb_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"ddemos/internal/bb"
	ddcore "ddemos/internal/core"
	"ddemos/internal/crypto/shamir"
	"ddemos/internal/ea"
	"ddemos/internal/trustee"
	"ddemos/internal/vc"
	"ddemos/internal/voter"
)

// pipeline runs a small election and returns the cluster with published
// results on all BB nodes.
func pipeline(t *testing.T, votes []int, opts ddcore.Options) (*ddcore.Cluster, *ea.ElectionData) {
	t.Helper()
	start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	data, err := ea.Setup(ea.Params{
		ElectionID:  "bb-test",
		Options:     []string{"x", "y"},
		NumBallots:  len(votes),
		NumVC:       4,
		NumBB:       3,
		NumTrustees: 3,
		VotingStart: start,
		VotingEnd:   start.Add(time.Hour),
		Seed:        []byte("bb-test"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := ddcore.NewCluster(data, opts)
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
	if _, err := cluster.RunPipeline(ctx); err != nil {
		t.Fatal(err)
	}
	return cluster, data
}

func TestBBRejectsBadSubmissions(t *testing.T) {
	cluster, _ := pipeline(t, []int{0, 1}, ddcore.Options{})
	node := cluster.BBs[0]

	set, _ := node.VoteSet()
	// Wrong signer index.
	sg := cluster.VCs[0].SignVoteSet(set)
	if err := node.SubmitVoteSet(1, set, sg); err == nil {
		t.Fatal("signature from wrong node accepted")
	}
	if err := node.SubmitVoteSet(99, set, sg); err == nil {
		t.Fatal("out-of-range vc index accepted")
	}
	// Unsorted set.
	if len(set) >= 2 {
		bad := []vc.VotedBallot{set[1], set[0]}
		sg2 := cluster.VCs[0].SignVoteSet(bad)
		if err := node.SubmitVoteSet(0, bad, sg2); err == nil {
			t.Fatal("unsorted set accepted")
		}
	}
	// Bad msk share signature.
	share := cluster.VCs[0].MskShare()
	share.Value = shamir.Share{Index: share.Index, Value: share.Value}.Value // copy
	badShare := ea.MskShare{Index: share.Index, Value: share.Value, Sig: make([]byte, 64)}
	if err := node.SubmitMskShare(badShare); err == nil {
		t.Fatal("unsigned msk share accepted")
	}
	// Bad trustee post.
	if err := node.SubmitTrusteePost(&bb.TrusteePost{Trustee: 0, ShareIndex: 1, Sig: make([]byte, 64)}); err == nil {
		t.Fatal("unsigned trustee post accepted")
	}
	if err := node.SubmitTrusteePost(&bb.TrusteePost{Trustee: 9, ShareIndex: 10}); err == nil {
		t.Fatal("out-of-range trustee accepted")
	}
}

func TestBBNeedsQuorumOfIdenticalSets(t *testing.T) {
	start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	data, err := ea.Setup(ea.Params{
		ElectionID:  "bb-quorum",
		Options:     []string{"x", "y"},
		NumBallots:  2,
		NumVC:       4,
		NumBB:       1,
		NumTrustees: 1,
		VotingStart: start,
		VotingEnd:   start.Add(time.Hour),
		Seed:        []byte("bb-quorum"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := ddcore.NewCluster(data, ddcore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	node := cluster.BBs[0]

	// One submission (fv=1 requires fv+1=2 identical): not yet published.
	var empty []vc.VotedBallot
	if err := node.SubmitVoteSet(0, empty, cluster.VCs[0].SignVoteSet(empty)); err != nil {
		t.Fatal(err)
	}
	if _, err := node.VoteSet(); err == nil {
		t.Fatal("vote set published with a single submission")
	}
	// Second identical submission publishes it.
	if err := node.SubmitVoteSet(1, empty, cluster.VCs[1].SignVoteSet(empty)); err != nil {
		t.Fatal(err)
	}
	if _, err := node.VoteSet(); err != nil {
		t.Fatal("vote set not published after fv+1 identical submissions")
	}
}

func TestReaderMajorityAgainstMinorityLiars(t *testing.T) {
	cluster, _ := pipeline(t, []int{0, 0, 1}, ddcore.Options{LyingBB: map[int]bool{2: true}})
	res, err := cluster.Reader.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[0] != 2 || res.Counts[1] != 1 {
		t.Fatalf("majority read returned corrupted counts %v", res.Counts)
	}
}

func TestReaderFailsWithoutMajority(t *testing.T) {
	cluster, data := pipeline(t, []int{0}, ddcore.Options{})
	// A 3-node reader needs fb+1 = 2 identical replies. Compose one lying
	// node, one honest node and one node that has published nothing (fresh
	// replica): every reply differs, so the reader must refuse rather than
	// guess.
	cluster.BBs[0].Lying = true
	fresh, err := bb.NewNode(data.BB)
	if err != nil {
		t.Fatal(err)
	}
	reader := bb.NewReader([]bb.API{cluster.BBs[0], cluster.BBs[1], fresh})
	if _, err := reader.Result(); err == nil {
		t.Fatal("reader returned a result without two matching replies")
	}
	// Restoring honesty restores the majority.
	cluster.BBs[0].Lying = false
	if _, err := reader.Result(); err != nil {
		t.Fatalf("reader failed with an honest majority: %v", err)
	}
}

func TestByzantineTrusteeSubsetSearch(t *testing.T) {
	cluster, data := pipeline(t, []int{1, 1, 0}, ddcore.Options{
		ByzantineTrustees: map[int]trustee.Byzantine{0: trustee.GarbageShares},
	})
	res, err := cluster.Reader.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[0] != 1 || res.Counts[1] != 2 {
		t.Fatalf("counts %v despite honest trustee quorum", res.Counts)
	}
	// The surviving combination carries no trace of the garbage trustee's
	// shares: its bytes are what the two honest trustees alone publish.
	got, err := cluster.Reader.Read(bb.KindResult)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := bb.NewNode(data.BB)
	if err != nil {
		t.Fatal(err)
	}
	feedBBState(t, cluster, clean)
	for _, p := range honestPosts(t, cluster.Reader, data, 3)[1:] {
		if err := clean.SubmitTrusteePost(p); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := clean.WaitResult(ctx); err != nil {
		t.Fatal(err)
	}
	if want, _ := clean.Read(bb.KindResult); !bytes.Equal(got, want) {
		t.Fatal("result published beside a garbage trustee differs from a clean run's")
	}
}

func TestCastDataConsistency(t *testing.T) {
	cluster, data := pipeline(t, []int{0, 1, -1}, ddcore.Options{})
	cast, err := cluster.Reader.Cast()
	if err != nil {
		t.Fatal(err)
	}
	if len(cast.Marks) != 2 || len(cast.Coins) != 2 {
		t.Fatalf("marks=%d coins=%d", len(cast.Marks), len(cast.Coins))
	}
	for i, mk := range cast.Marks {
		if cast.Coins[i] != mk.Part {
			t.Fatal("coins inconsistent with marks")
		}
		// The decrypted code at the mark must equal the vote-set code.
		code := cast.Codes[mk.Serial-1][mk.Part][mk.Row]
		found := false
		for _, vb := range cast.VoteSet {
			if vb.Serial == mk.Serial && string(vb.Code) == string(code) {
				found = true
			}
		}
		if !found {
			t.Fatal("mark points at a code not in the vote set")
		}
	}
	// All decrypted codes match the ballots.
	for bi, b := range data.Ballots {
		for part := 0; part < 2; part++ {
			want := map[string]bool{}
			for _, l := range b.Parts[part].Lines {
				want[string(l.VoteCode)] = true
			}
			for _, code := range cast.Codes[bi][part] {
				if !want[string(code)] {
					t.Fatalf("ballot %d part %d: decrypted code not on ballot", bi+1, part)
				}
			}
		}
	}
}

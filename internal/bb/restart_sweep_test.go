package bb_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"ddemos/internal/bb"
	"ddemos/internal/journal"
)

// sweepPools rotates the journal's lane count across seeds: 1, 2, 4 — the
// same rotation the VC restart sweeps run.
var sweepPools = []int{1, 2, 4}

// TestBBRestartSweepPublishPhase is the crash-restart composition sweep of
// the BB durability layer: per seed, one journaled replica is hard-stopped
// either mid-trustee-posting (after accepting ht-1 posts) or mid-combine
// (worker parked inside an attempt via CombineGate), recovered from its
// snapshot+WAL, fed the remaining posts in a seed-shuffled order, and must
// publish a result byte-identical (canonical form) to two never-crashed
// replicas — with recover-twice as a StateHash fixpoint. Journal engines
// rotate by seed. Replay one seed with
// -run 'TestBBRestartSweepPublishPhase/seed=N'; CI adds a rotating seed via
// DDEMOS_BB_RESTART_SEED.
func TestBBRestartSweepPublishPhase(t *testing.T) {
	votes := []int{0, 1, 1, 0, -1, 1}
	const nt = 5 // ht = 3
	cluster, data := publishSetup(t, votes, nt)
	posts := honestPosts(t, cluster.Reader, data, nt)
	ht := data.BB.Manifest.TrusteeThreshold

	numSeeds := 100
	if testing.Short() {
		numSeeds = 20
	}
	seeds := make([]int, 0, numSeeds+1)
	for s := 1; s <= numSeeds; s++ {
		seeds = append(seeds, s)
	}
	if v := os.Getenv("DDEMOS_BB_RESTART_SEED"); v != "" {
		extra, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("DDEMOS_BB_RESTART_SEED = %q: %v", v, err)
		}
		t.Logf("rotating restart seed from environment: %d", extra)
		seeds = append(seeds, extra)
	}

	baseDir := t.TempDir()
	var want string
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(seed))) //nolint:gosec // deterministic test
			jopts := journal.Options{Pool: sweepPools[seed%len(sweepPools)]}
			dir := filepath.Join(baseDir, fmt.Sprintf("seed-%d", seed))
			order := rnd.Perm(nt)

			// One journaled replica plus two never-crashed memory witnesses.
			journaled, err := bb.NewNode(data.BB)
			if err != nil {
				t.Fatal(err)
			}
			if err := journaled.RecoverWithOptions(dir, jopts); err != nil {
				t.Fatal(err)
			}
			witnesses := make([]*bb.Node, 2)
			for i := range witnesses {
				if witnesses[i], err = bb.NewNode(data.BB); err != nil {
					t.Fatal(err)
				}
				feedBBState(t, cluster, witnesses[i])
				for _, ti := range order {
					if err := witnesses[i].SubmitTrusteePost(posts[ti]); err != nil {
						t.Fatal(err)
					}
				}
			}
			feedBBState(t, cluster, journaled)

			var crashed int // posts accepted by the journaled node before the stop
			if seed%2 == 0 {
				// Mid-posting crash: hard-stop after ht-1 accepted posts.
				crashed = ht - 1
				for _, ti := range order[:crashed] {
					if err := journaled.SubmitTrusteePost(posts[ti]); err != nil {
						t.Fatal(err)
					}
				}
				if err := journaled.Close(); err != nil {
					t.Fatal(err)
				}
			} else {
				// Mid-combine crash: park the worker inside an attempt, stop
				// the node under it, then let the attempt finish against the
				// closed node (it must not install or journal anything).
				entered := make(chan struct{})
				release := make(chan struct{})
				gated := false
				journaled.CombineGate = func() {
					if !gated {
						gated = true
						close(entered)
					}
					<-release
				}
				crashed = ht
				for _, ti := range order[:crashed] {
					if err := journaled.SubmitTrusteePost(posts[ti]); err != nil {
						t.Fatal(err)
					}
				}
				select {
				case <-entered:
				case <-time.After(10 * time.Second):
					t.Fatal("combine worker never started")
				}
				if err := journaled.Close(); err != nil {
					t.Fatal(err)
				}
				close(release)
			}

			// Recover in place from the same directory and engine.
			recovered, err := bb.NewNode(data.BB)
			if err != nil {
				t.Fatal(err)
			}
			if err := recovered.RecoverWithOptions(dir, jopts); err != nil {
				t.Fatal(err)
			}
			if _, err := recovered.Cast(); err != nil {
				t.Fatalf("recovered replica lost the cast data: %v", err)
			}
			// Resubmit everything (the journaled prefix acks as duplicates).
			for _, ti := range order {
				if err := recovered.SubmitTrusteePost(posts[ti]); err != nil {
					t.Fatal(err)
				}
			}

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			res, err := recovered.WaitResult(ctx)
			if err != nil {
				t.Fatalf("recovered replica published no result: %v", err)
			}
			if res.Counts[0] != 2 || res.Counts[1] != 3 {
				t.Fatalf("counts = %v", res.Counts)
			}
			got := canonicalResult(res)
			for wi, w := range witnesses {
				wres, err := w.WaitResult(ctx)
				if err != nil {
					t.Fatalf("witness %d published no result: %v", wi, err)
				}
				if canonicalResult(wres) != got {
					t.Fatalf("recovered replica diverges from never-crashed witness %d", wi)
				}
			}
			if want == "" {
				want = got
			} else if got != want {
				t.Fatal("result diverges across seeds")
			}

			// Recover-twice fixpoint over the post-publication state.
			if err := recovered.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := bb.NewNode(data.BB)
			if err != nil {
				t.Fatal(err)
			}
			if err := again.RecoverWithOptions(dir, jopts); err != nil {
				t.Fatal(err)
			}
			if again.StateHash() != recovered.StateHash() {
				t.Fatal("recover-twice is not a StateHash fixpoint")
			}
			_ = again.Close()
		})
	}
}

// Referendum: a large-scale two-option election in the spirit of the
// paper's scalability experiments (§V): a big ballot pool served from the
// disk-backed store, hundreds of concurrent voters, end-to-end timing.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ddemos"
	"ddemos/internal/ballot"
	"ddemos/internal/store"
)

func main() {
	pool := flag.Int("pool", 20000, "ballot pool size (eligible voters)")
	votes := flag.Int("votes", 4000, "ballots actually cast")
	clients := flag.Int("clients", 200, "concurrent voting clients")
	flag.Parse()

	start := time.Now()
	params := ddemos.Params{
		ElectionID:  "referendum-2026",
		Options:     []string{"approve", "reject"},
		NumBallots:  *pool,
		NumVC:       4,
		NumBB:       3,
		NumTrustees: 3,
		VotingStart: start,
		VotingEnd:   start.Add(24 * time.Hour),
		VCOnly:      true, // vote-collection study: no tally crypto needed
	}
	fmt.Printf("generating %d ballots… ", *pool)
	t0 := time.Now()
	data, err := ddemos.Setup(params)
	if err != nil {
		log.Fatalf("setup: %v", err)
	}
	fmt.Printf("done in %v\n", time.Since(t0).Round(time.Millisecond))

	// Disk-backed ballot stores, one segment directory per VC node (the
	// paper's PostgreSQL role).
	dir, err := os.MkdirTemp("", "referendum")
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = os.RemoveAll(dir) }()
	stores := make(map[int]store.Store, params.NumVC)
	for i := 0; i < params.NumVC; i++ {
		ds, err := store.CreateSegmented(filepath.Join(dir, fmt.Sprintf("vc%d", i)), data.VC[i].Ballots, store.WriterOptions{})
		if err != nil {
			log.Fatalf("store %d: %v", i, err)
		}
		stores[i] = ds
	}

	cluster, err := ddemos.NewCluster(data, ddemos.ClusterOptions{Stores: stores})
	if err != nil {
		log.Fatalf("cluster: %v", err)
	}
	defer cluster.Stop()

	// Concurrent voters, paper-style: each thread grabs the next unvoted
	// ballot, picks a random part/option/VC node, submits, awaits receipt.
	fmt.Printf("casting %d ballots with %d concurrent clients…\n", *votes, *clients)
	var next, errs atomic.Uint64
	var latSum atomic.Int64
	var wg sync.WaitGroup
	wall := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 42))
			for {
				serial := next.Add(1)
				if serial > uint64(*votes) {
					return
				}
				b := data.Ballots[serial-1]
				part := ballot.PartID(rng.IntN(2))
				code, err := b.CodeFor(part, rng.IntN(2))
				if err != nil {
					errs.Add(1)
					continue
				}
				node := cluster.VCs[rng.IntN(len(cluster.VCs))]
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				t := time.Now()
				_, err = node.SubmitVote(ctx, serial, code)
				cancel()
				if err != nil {
					errs.Add(1)
					continue
				}
				latSum.Add(int64(time.Since(t)))
			}
		}(uint64(c + 1))
	}
	wg.Wait()
	elapsed := time.Since(wall)
	ok := int64(*votes) - int64(errs.Load())
	fmt.Printf("collected %d receipts in %v — %.1f votes/sec, avg latency %v, %d errors\n",
		ok, elapsed.Round(time.Millisecond), float64(ok)/elapsed.Seconds(),
		(time.Duration(latSum.Load() / max(ok, 1))).Round(time.Microsecond), errs.Load())

	// Close polls: all VC nodes agree on the final vote set.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	sets, err := cluster.RunVoteSetConsensus(ctx, nil)
	if err != nil {
		log.Fatalf("vote set consensus: %v", err)
	}
	for i, set := range sets {
		fmt.Printf("VC node %d agreed on %d voted ballots\n", i, len(set))
		break // all identical by agreement
	}
	fmt.Printf("phases: %v\n", cluster.Phases())
}

func max(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ddemos-loadgen drives sustained open-loop vote traffic at a target rate
// against the VC nodes of a running cluster, over the same HTTP API real
// voters use. Send times are fixed on a rate grid before the run starts and
// every latency is measured against that schedule, so a saturated cluster
// shows its queueing delay in the tail instead of silently slowing the
// generator down (coordinated omission).
//
//	ddemos-loadgen -vc http://localhost:8100,http://localhost:8101 \
//	               -ballots election/ballots.gob -rate 500 -duration 60s \
//	               -out load.json
//
// Each scheduled op casts a deterministic (serial, part, option) tuple;
// serials cycle through the ballot pool, and re-votes of the same line are
// idempotent on the VC (same receipt), so the generator can run longer than
// the pool without manufacturing rejections. -out writes the run as one
// JSON document (benchmark.LoadReport): target and achieved rate, latency
// quantiles against the schedule, outcome counts and distinct serials.
//
// Exit status: 0 = run completed within -max-error-rate, 1 = too many
// errors or nothing completed, 2 = usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ddemos/internal/ballot"
	"ddemos/internal/benchmark"
	"ddemos/internal/httpapi"
)

func main() {
	vcS := flag.String("vc", "", "comma-separated VC base URLs (round-robin per op)")
	ballotsPath := flag.String("ballots", "", "path to ballots.gob (the serial/code pool)")
	rate := flag.Float64("rate", 500, "target send rate, ops/sec (open loop)")
	duration := flag.Duration("duration", 60*time.Second, "length of the send schedule")
	workers := flag.Int("workers", 0, "max in-flight requests (0 = 512); size ≥ rate × expected p99")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout")
	votes := flag.Int("votes", 0, "distinct serials to cycle through (0 = whole pool)")
	seed := flag.Int64("seed", 1, "seed for the part/option choice per serial")
	out := flag.String("out", "", "write the run as a JSON report here")
	maxErrRate := flag.Float64("max-error-rate", 0.01, "error fraction above which the run exits 1")
	scrape := flag.Bool("scrape", false, "log each VC's /v1/metrics snapshot after the run")
	flag.Parse()
	log.SetFlags(0)

	if *vcS == "" || *ballotsPath == "" {
		log.Print("loadgen: -vc and -ballots are required")
		os.Exit(2)
	}
	var clients []*httpapi.VCClient
	for _, base := range strings.Split(*vcS, ",") {
		if base = strings.TrimSpace(base); base != "" {
			clients = append(clients, &httpapi.VCClient{BaseURL: base})
		}
	}
	if len(clients) == 0 {
		log.Print("loadgen: -vc holds no URLs")
		os.Exit(2)
	}
	ballots, err := httpapi.ReadBallotsFile(*ballotsPath)
	if err != nil {
		log.Printf("loadgen: %v", err)
		os.Exit(2)
	}
	if len(ballots) == 0 {
		log.Print("loadgen: ballot pool is empty")
		os.Exit(2)
	}
	pool := len(ballots)
	if *votes > 0 && *votes < pool {
		pool = *votes
	}

	// Precompute one deterministic (part, option, code) per serial: the hot
	// loop then only indexes — no rand, no hashing, no allocation beyond the
	// request itself.
	type plannedVote struct {
		serial uint64
		code   []byte
	}
	rng := rand.New(rand.NewSource(*seed)) //nolint:gosec // load plan, not crypto
	plan := make([]plannedVote, pool)
	for i := range plan {
		b := ballots[i]
		part := ballot.PartID(rng.Intn(2)) //nolint:gosec // 0 or 1
		opt := rng.Intn(len(b.Parts[part].Lines))
		code, err := b.CodeFor(part, opt)
		if err != nil {
			log.Printf("loadgen: ballot %d: %v", b.Serial, err)
			os.Exit(2)
		}
		plan[i] = plannedVote{serial: b.Serial, code: code}
	}

	log.Printf("loadgen: %d VC nodes, %d-serial pool, %v schedule at %g/sec",
		len(clients), pool, *duration, *rate)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := benchmark.RunLoad(ctx, benchmark.LoadConfig{
		Rate:     *rate,
		Duration: *duration,
		Workers:  *workers,
		Timeout:  *timeout,
	}, func(ctx context.Context, op int) error {
		pv := plan[op%pool]
		_, err := clients[op%len(clients)].SubmitVote(ctx, pv.serial, pv.code)
		return err
	})
	if err != nil {
		log.Printf("loadgen: %v", err)
		os.Exit(2)
	}
	fmt.Println(res.Summary(*rate))
	if res.FirstErr != nil {
		log.Printf("loadgen: first error: %v", res.FirstErr)
	}

	if *out != "" {
		if err := res.Report(*rate, min(pool, res.Scheduled)).WriteFile(*out); err != nil {
			log.Printf("loadgen: %v", err)
			os.Exit(2)
		}
		log.Printf("loadgen: wrote %s", *out)
	}

	if *scrape {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		for i, c := range clients {
			s, err := c.Metrics(sctx)
			if err != nil {
				log.Printf("loadgen: vc-%d metrics: %v", i, err)
				continue
			}
			log.Printf("loadgen: vc-%d: accepted=%d bad=%d avg-vote=%v journal=%d jerr=%d",
				i, s.VotesAccepted, s.BadMessages, s.AvgVote, s.JournalRecords, s.JournalErrors)
		}
		cancel()
	}

	if res.Completed == 0 {
		log.Print("loadgen: FAIL — no operation completed")
		os.Exit(1)
	}
	if frac := float64(res.Errors) / float64(res.Scheduled); frac > *maxErrRate {
		log.Printf("loadgen: FAIL — error rate %.2f%% exceeds %.2f%%", frac*100, *maxErrRate*100)
		os.Exit(1)
	}
}

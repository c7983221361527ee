// ddemos-bench regenerates the tables and figures of the paper's evaluation
// (§V), printing the same series the paper plots. Each figure is a sweep;
// see DESIGN.md ("Substitutions") for the scaled parameter mapping.
//
//	ddemos-bench -fig 4b            # one figure
//	ddemos-bench -fig all           # everything (takes a while)
//	ddemos-bench -fig table1
//	ddemos-bench -fig ablation
//	ddemos-bench -quick             # smaller sweeps
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ddemos/internal/benchmark"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 4a,4b,4c,4d,4e,4f,5a,5b,5c,table1,ablation,pool,pool-election,all")
	quick := flag.Bool("quick", false, "smaller sweeps for a fast pass")
	consensus := flag.String("consensus", "interlocked",
		"vote-set-consensus engine for full-election runs: 'interlocked' or 'acs' (times the "+
			"consensus phase of Fig5c on the chosen engine)")
	flag.Parse()

	ballots, votes := 10000, 5000
	vcs, clients, series := benchmark.VCSweep, benchmark.ClientSweep, benchmark.ClientSeries
	pools := benchmark.PoolSweep
	optionSweep := benchmark.OptionSweep
	casts := benchmark.CastSweep
	if *quick {
		ballots, votes = 3000, 1500
		vcs, clients, series = []int{4, 10, 16}, []int{200, 1000}, []int{500}
		pools = []int{10000, 30000, 50000}
		optionSweep = []int{2, 6, 10}
		casts = []int{500, 1000}
	}

	runs := map[string]func() error{
		"4a": func() error { return benchmark.Fig4(os.Stdout, false, vcs, series, ballots, votes, 4) },
		"4b": func() error { return benchmark.Fig4(os.Stdout, false, vcs, series, ballots, votes, 4) },
		"4c": func() error {
			return benchmark.Fig4Clients(os.Stdout, false, []int{4, 7, 10, 13, 16}, clients, ballots, votes, 4)
		},
		"4d": func() error { return benchmark.Fig4(os.Stdout, true, vcs, series, ballots, votes, 4) },
		"4e": func() error { return benchmark.Fig4(os.Stdout, true, vcs, series, ballots, votes, 4) },
		"4f": func() error {
			return benchmark.Fig4Clients(os.Stdout, true, []int{4, 7, 10, 13, 16}, clients, ballots, votes, 4)
		},
		"5a": func() error { return benchmark.Fig5a(os.Stdout, pools, 2000, 400) },
		"5b": func() error { return benchmark.Fig5b(os.Stdout, optionSweep, ballots, votes, 400) },
		"5c": func() error { return benchmark.Fig5c(os.Stdout, casts, 4, 100, *consensus) },
		"table1": func() error {
			tcomp, avgVote, err := benchmark.VoteMetricsSample(benchmark.Config{
				Ballots: 1000, Options: 4, VC: 4, Clients: 100, Votes: 1000, Seed: "table1",
			})
			if err != nil {
				return err
			}
			benchmark.PrintTableOne(os.Stdout, 4, tcomp, 0, benchmark.LANDelay, avgVote)
			return nil
		},
		"ablation": func() error {
			for _, wan := range []bool{false, true} {
				res, err := benchmark.RunAblation(2000, 200, 4, wan)
				if err != nil {
					return err
				}
				benchmark.PrintAblation(os.Stdout, res, wan)
			}
			return nil
		},
		"pool": func() error {
			points, err := benchmark.RunPoolAblation(benchmark.PoolAblationConfig{})
			if err != nil {
				return err
			}
			benchmark.PrintPoolAblation(os.Stdout, points)
			return nil
		},
		"pool-election": func() error {
			votesP, clientsP := 1200, 200
			if *quick {
				votesP, clientsP = 400, 100
			}
			points, err := benchmark.RunPoolElectionAblation([]int{1, 2, 4}, votesP, votesP, clientsP, 4)
			if err != nil {
				return err
			}
			benchmark.PrintPoolElectionAblation(os.Stdout, points)
			return nil
		},
	}

	// 4a/4b and 4d/4e share one sweep (latency and throughput of the same
	// runs); dedupe when running everything.
	order := []string{"4a", "4c", "4d", "4f", "5a", "5b", "5c", "table1", "ablation", "pool"}
	if *fig == "all" {
		for _, name := range order {
			fmt.Printf("\n===== figure %s =====\n", name)
			if err := runs[name](); err != nil {
				log.Fatalf("figure %s: %v", name, err)
			}
		}
		return
	}
	run, ok := runs[*fig]
	if !ok {
		log.Fatalf("unknown figure %q", *fig)
	}
	if err := run(); err != nil {
		log.Fatalf("figure %s: %v", *fig, err)
	}
}

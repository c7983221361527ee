// Command bench is the repository's end-to-end benchmark. It deploys the
// shipped stack in one process — EA set-up, segment stores behind the ballot
// cache, a 4-node VC cluster on authenticated, batched channels over the
// simulated LAN, journals on disk, the /v1 HTTP API on loopback listeners —
// drives it with seeded voters, and prints every metric by name and unit.
// See README.md for the workloads, the metrics and how they interact.
//
//	sh bench/run.sh --workload collect-paced --seed 1 --seconds 10 --trace 0
//	sh bench/run.sh --workload all --seed 1 --trace 1 > suite.json
//	sh bench/run.sh --compare base.json new.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"ddemos/internal/transport"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the voting-window budget
// the vote counts are sized for.
const defaultSeconds = 10

func main() {
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Uint64("seed", 1, "seed of every generated input (EA randomness, voters, choices, nodes)")
	seconds := flag.Int("seconds", defaultSeconds, "voting-window budget; vote counts scale with it")
	trace := flag.Int("trace", 0, "0: plain run, end-to-end metrics; 1: traced run, per-layer metrics (with -workload all: both)")
	out := flag.String("out", "out", "directory for scratch data and trace files")
	compare := flag.Bool("compare", false, "compare two result files (suite JSON lines): bench -compare base.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare base.json new.json")
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("need -seconds >= 1 and -trace 0 or 1")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	hdr := newHeader(*seconds)
	fmt.Fprintln(os.Stderr, hdr.String())

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	// A single workload runs the mode -trace names; the suite runs the plain
	// mode always and the traced mode as well on -trace 1.
	modes := []bool{*trace == 1}
	if *workload == "all" && *trace == 1 {
		modes = []bool{false, true}
	}
	suite := suiteResult{Header: hdr}
	correct := true
	for _, name := range names {
		sp, err := newSpec(name, *seconds, 1)
		if err != nil {
			fatalf("%v", err)
		}
		for _, traced := range modes {
			// The driver allows a run 180 s; one that hangs must fail inside it.
			runCtx, cancel := context.WithTimeout(ctx, 170*time.Second)
			res, err := runWorkload(runCtx, sp, *seed, traced, *out)
			cancel()
			if err != nil {
				fatalf("%s: %v", name, err)
			}
			printSummary(os.Stderr, sp, res)
			suite.Runs = append(suite.Runs, res)
			correct = correct && res.Correct
		}
	}

	var line any = suite
	if len(names) == 1 {
		// The driver's contract: exactly these four keys on the last line.
		r := suite.Runs[0]
		line = struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(enc))
	if !correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// suiteResult is the result file: what one invocation measured, and under
// which conditions. Claim is always null — the benchmark defines the names
// later claims use and makes none itself.
type suiteResult struct {
	Header header       `json:"header"`
	Runs   []*runResult `json:"runs"`
	Claim  *string      `json:"claim"`
}

// header states the conditions the numbers hold under.
type header struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seconds    int    `json:"seconds"`
	LinkDelay  string `json:"link_delay"`
	Batching   string `json:"batch_window"`
	Fsync      string `json:"fsync_caveat"`
}

func newHeader(seconds int) header {
	lan := transport.LANProfile
	return header{
		Commit:     gitCommit(),
		Go:         runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seconds:    seconds,
		LinkDelay:  fmt.Sprintf("%v + up to %v jitter injected per inter-VC hop (Memnet LAN profile)", lan.Latency, lan.Jitter),
		Batching:   transport.DefaultBatchWindow.String(),
		Fsync:      "journals live on the checkout's filesystem; a sandbox flushes cheaply, so collect-durable's numbers are this machine's, not a device's",
	}
}

func (h header) String() string {
	return fmt.Sprintf("bench: commit %s, %s, nproc %d, GOMAXPROCS %d, window budget %d s\nbench: link delay: %s; batch window %s\nbench: %s",
		h.Commit, h.Go, h.NumCPU, h.GOMAXPROCS, h.Seconds, h.LinkDelay, h.Batching, h.Fsync)
}

// gitCommit names the measured commit when bench/ sits in a git work tree
// (the driver's checkout does not).
func gitCommit() string {
	if _, err := os.Stat("../.git"); err != nil {
		return "unknown"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printSummary writes one run's metrics, notes and verdict for a reader.
func printSummary(w *os.File, sp *spec, res *runResult) {
	mode, defs := "plain", endToEnd
	if res.Traced {
		mode, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "\n== %s (%s, seed %d): %d ballots, %d warm-up + %d timed votes\n",
		sp.Name, mode, res.Seed, sp.Pool, sp.Warmup, sp.timedVotes())
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, d := range defs {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	_ = tw.Flush()
	if res.Traced {
		fmt.Fprintln(w, "  self time by span name (parallel spans of one name counted once):")
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		for _, row := range res.SelfTime {
			fmt.Fprintf(tw, "    %s\t%d spans\tself %.4f s\ttotal %.4f s\n", row.Name, row.Count, row.Self.Seconds(), row.Total.Seconds())
		}
		_ = tw.Flush()
	}
	for _, n := range res.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
	for _, p := range res.Problems {
		fmt.Fprintln(w, "  PROBLEM:", p)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}

// Package benchmark is the harness that regenerates every table and figure
// of the paper's evaluation (§V). It is shared by the repository-root
// testing.B benchmarks (one per figure/table, representative points) and by
// cmd/ddemos-bench (full parameter sweeps printing the same series the
// paper plots). See DESIGN.md ("Substitutions") for the parameter scaling.
// It reproduces the paper's exhibits; it does not judge performance. The
// end-to-end benchmark under bench/ (BENCHMARK.json) is that judge.
package benchmark

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ddemos/internal/ballot"
	"ddemos/internal/core"
	"ddemos/internal/ea"
	"ddemos/internal/store"
	"ddemos/internal/transport"
)

// Config parameterizes one vote-collection benchmark run (the workload of
// Fig. 4 and Fig. 5a/5b: concurrent clients casting ballots against the VC
// subsystem).
type Config struct {
	Ballots int // n: ballot pool size
	Options int // m
	VC      int // Nv
	Clients int // concurrent clients ("cc" in the paper's figures)
	Votes   int // total ballots to cast (<= Ballots)
	WAN     bool
	// Disk stores each VC node's data in a fixed-record file instead of
	// memory (Fig. 5a).
	Disk    bool
	DiskDir string
	// WAL gives every VC node a durable runtime-state journal (the
	// crash-recovery configuration) in a temporary directory; WALFsync
	// syncs per transition instead of on the batched group-commit cadence.
	WAL      bool
	WALFsync bool
	// JournalPool is the journal's WAL-lane count, <= 1 meaning one lane
	// (the Fig. 5a pool knob applied to runtime state; requires WAL).
	JournalPool int
	// Consensus selects the vote-set-consensus engine every VC node runs:
	// "interlocked" (default) or "acs". Collection-only runs never reach the
	// engine, but validating it here keeps a typo from surviving until the
	// consensus phase of a long election benchmark.
	Consensus string
	Seed      string
	// TransportOptions selects the inter-VC channel configuration (the
	// batched-vs-unbatched ablation of Fig. 5b).
	TransportOptions
}

// TransportOptions selects the inter-VC channel configuration of a figure
// sweep; the zero value is the unbatched network. Links are always
// authenticated (one MAC per frame, or per batch).
type TransportOptions struct {
	// Batch turns the batched message pipeline on.
	Batch bool
	// BatchMaxMessages caps messages per batch (0 = transport default).
	BatchMaxMessages int
}

// Result is the outcome of a vote-collection run.
type Result struct {
	Votes      int
	Errors     int
	Wall       time.Duration
	Throughput float64 // receipts per second
	AvgLatency time.Duration
	SetupTime  time.Duration
}

// Run executes one vote-collection benchmark.
func Run(cfg Config) (*Result, error) {
	if cfg.Votes > cfg.Ballots {
		cfg.Votes = cfg.Ballots
	}
	if cfg.Clients > cfg.Votes {
		cfg.Clients = cfg.Votes
	}
	opts := make([]string, cfg.Options)
	for i := range opts {
		opts[i] = fmt.Sprintf("option-%d", i)
	}
	start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	setupStart := time.Now()
	data, err := ea.Setup(ea.Params{
		ElectionID:  fmt.Sprintf("bench-%s-%d-%d", cfg.Seed, cfg.VC, cfg.Ballots),
		Options:     opts,
		NumBallots:  cfg.Ballots,
		NumVC:       cfg.VC,
		NumBB:       3,
		NumTrustees: 3,
		VotingStart: start,
		VotingEnd:   start.Add(24 * time.Hour),
		VCOnly:      true,
		Seed:        []byte("bench-" + cfg.Seed),
	})
	if err != nil {
		return nil, err
	}
	setupTime := time.Since(setupStart)

	clusterOpts := core.Options{
		BatchMaxMessages: cfg.BatchMaxMessages,
		Consensus:        cfg.Consensus,
	}
	if cfg.Batch {
		clusterOpts.BatchWindow = transport.DefaultBatchWindow // any value > 0 turns batching on
	}
	if cfg.WAN {
		lp := transport.WANProfile
		clusterOpts.LinkProfile = &lp
	}
	if cfg.WAL {
		dir, err := os.MkdirTemp("", "ddemos-bench-wal")
		if err != nil {
			return nil, err
		}
		defer func() { _ = os.RemoveAll(dir) }()
		clusterOpts.DataDir = dir
		clusterOpts.Fsync = cfg.WALFsync
		clusterOpts.JournalPool = cfg.JournalPool
	}
	if cfg.Disk {
		dir := cfg.DiskDir
		if dir == "" {
			dir, err = os.MkdirTemp("", "ddemos-bench")
			if err != nil {
				return nil, err
			}
			defer func() { _ = os.RemoveAll(dir) }()
		}
		clusterOpts.Stores = make(map[int]store.Store, cfg.VC)
		for i := 0; i < cfg.VC; i++ {
			st, err := store.CreateDisk(
				filepath.Join(dir, fmt.Sprintf("vc-%d.store", i)), data.VC[i].Ballots)
			if err != nil {
				return nil, err
			}
			clusterOpts.Stores[i] = st
		}
	}
	cluster, err := core.NewCluster(data, clusterOpts)
	if err != nil {
		return nil, err
	}
	defer cluster.Stop()
	res := castWorkload(cluster, data, cfg.Clients, cfg.Votes)
	res.SetupTime = setupTime
	return res, nil
}

// castWorkload runs the concurrent voting clients and measures throughput
// and latency, mirroring the paper's multi-threaded voting client (§V).
func castWorkload(cluster *core.Cluster, data *ea.ElectionData, clients, votes int) *Result {
	var next atomic.Uint64
	var latSum atomic.Int64
	var errs atomic.Int64
	var wg sync.WaitGroup
	wall := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0xBEEF)) //nolint:gosec // workload gen
			for {
				serial := next.Add(1)
				if serial > uint64(votes) { //nolint:gosec // positive
					return
				}
				b := data.Ballots[serial-1]
				part := ballot.PartID(rng.IntN(2))     //nolint:gosec // 0/1
				opt := rng.IntN(len(b.Parts[0].Lines)) //nolint:gosec // small
				code, err := b.CodeFor(part, opt)
				if err != nil {
					errs.Add(1)
					continue
				}
				node := cluster.VCs[rng.IntN(len(cluster.VCs))]
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				t0 := time.Now()
				_, err = node.SubmitVote(ctx, serial, code)
				cancel()
				if err != nil {
					errs.Add(1)
					continue
				}
				latSum.Add(int64(time.Since(t0)))
			}
		}(uint64(c + 1)) //nolint:gosec // positive
	}
	wg.Wait()
	elapsed := time.Since(wall)
	ok := int64(votes) - errs.Load()
	res := &Result{
		Votes:  int(ok),
		Errors: int(errs.Load()),
		Wall:   elapsed,
	}
	if elapsed > 0 {
		res.Throughput = float64(ok) / elapsed.Seconds()
	}
	if ok > 0 {
		res.AvgLatency = time.Duration(latSum.Load() / ok)
	}
	return res
}

// PhasesConfig parameterizes the full-pipeline benchmark (Fig. 5c).
type PhasesConfig struct {
	Ballots int
	Options int
	VC      int
	Clients int
	// Consensus selects the vote-set-consensus engine ("interlocked"
	// default or "acs") — the knob behind the Fig. 5c consensus-phase
	// series, since the phase pipeline is the one benchmark that times it.
	Consensus string
	Seed      string
}

// PhasesResult is the duration of each system phase (Fig. 5c's series).
type PhasesResult struct {
	Collection time.Duration
	Consensus  time.Duration
	Push       time.Duration
	Publish    time.Duration
	Counts     []int64
}

// RunPhases runs the complete pipeline — with the full cryptographic
// payload, BB nodes and trustees — casting every ballot, and reports the
// four phase durations of Fig. 5c.
func RunPhases(cfg PhasesConfig) (*PhasesResult, error) {
	opts := make([]string, cfg.Options)
	for i := range opts {
		opts[i] = fmt.Sprintf("option-%d", i)
	}
	start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	data, err := ea.Setup(ea.Params{
		ElectionID:  "bench-phases-" + cfg.Seed,
		Options:     opts,
		NumBallots:  cfg.Ballots,
		NumVC:       cfg.VC,
		NumBB:       3,
		NumTrustees: 3,
		VotingStart: start,
		VotingEnd:   start.Add(24 * time.Hour),
		Seed:        []byte("bench-phases-" + cfg.Seed),
	})
	if err != nil {
		return nil, err
	}
	cluster, err := core.NewCluster(data, core.Options{Consensus: cfg.Consensus})
	if err != nil {
		return nil, err
	}
	defer cluster.Stop()

	t0 := time.Now()
	w := castWorkload(cluster, data, cfg.Clients, cfg.Ballots)
	cluster.RecordVoteCollection(time.Since(t0))
	if w.Errors > 0 {
		return nil, fmt.Errorf("benchmark: %d votes failed during collection", w.Errors)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	result, err := cluster.RunPipeline(ctx)
	if err != nil {
		return nil, err
	}
	phases := cluster.Phases()
	return &PhasesResult{
		Collection: phases[core.PhaseVoteCollection],
		Consensus:  phases[core.PhaseVoteSetConsensus],
		Push:       phases[core.PhasePushAndTally],
		Publish:    phases[core.PhasePublishResult],
		Counts:     result.Counts,
	}, nil
}

// VoteMetricsSample measures the per-step compute time Tcomp and average
// receipt latency for the Table I analysis.
func VoteMetricsSample(cfg Config) (tcomp, avgVote time.Duration, err error) {
	if _, err := Run(cfg); err != nil {
		return 0, 0, err
	}
	// Re-run with direct cluster access to harvest node metrics.
	opts := make([]string, cfg.Options)
	for i := range opts {
		opts[i] = fmt.Sprintf("option-%d", i)
	}
	start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	data, err := ea.Setup(ea.Params{
		ElectionID:  "bench-metrics-" + cfg.Seed,
		Options:     opts,
		NumBallots:  cfg.Ballots,
		NumVC:       cfg.VC,
		NumBB:       3,
		NumTrustees: 3,
		VotingStart: start,
		VotingEnd:   start.Add(24 * time.Hour),
		VCOnly:      true,
		Seed:        []byte("bench-metrics"),
	})
	if err != nil {
		return 0, 0, err
	}
	cluster, err := core.NewCluster(data, core.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer cluster.Stop()
	castWorkload(cluster, data, cfg.Clients, cfg.Votes)
	var maxEndorse, maxVote time.Duration
	for _, n := range cluster.VCs {
		s := n.Metrics()
		if s.AvgEndorse > maxEndorse {
			maxEndorse = s.AvgEndorse
		}
		if s.AvgVote > maxVote {
			maxVote = s.AvgVote
		}
	}
	// Tcomp approximates one protocol step's local compute: the endorsement
	// phase spans ~4 steps (validate, endorse round trip, verify, certify).
	return maxEndorse / 4, maxVote, nil
}

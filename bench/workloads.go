package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"ddemos/internal/vc"
)

// Load-generator shape shared by every workload: 8 closed-loop clients is
// where votes/s stops rising on two cores (2→541, 4→1130, 8→1385, 64→1372
// on the plain transport); more only measures the Go scheduler. The open
// loop may have up to 32 votes outstanding before it falls behind schedule.
const (
	closedClients = 8
	maxInFlight   = 32
)

// spec is one workload: the deployment's configuration and how many votes
// of which arrival pattern it receives.
type spec struct {
	Name string

	FullCrypto    bool   // BB + trustee payloads too; otherwise a VC-only pool
	Engine        string // vote-set consensus engine
	Fsync         bool
	JournalPool   int
	JournalPolicy vc.AckPolicy

	Pool   int       // ballots generated (voters + abstainers)
	Warmup int       // untimed closed-loop votes before the window
	Ladder []plateau // timed votes, open loop, lowest rate first
	Burst  int       // timed votes after the ladder, closed loop at saturation
	Drill  int       // restart drill: this many votes on 3 nodes, then again on 4

	AuditVoted, AuditAbstained int           // delegated audit packages
	SetupRepeats               int           // setup_s is the median of this many set-ups
	ProbeFor                   time.Duration // traced run: how long each layer probe repeats its operation
}

// workloadWhy is each workload's reason to exist, as BENCHMARK.json states it.
var workloadWhy = map[string]string{
	"collect-paced":   "open loop at 150 then 300 votes/s, latency from the scheduled send, then an 8-client closed-loop burst at saturation; group-commit journal; acs consensus over 3 200 votes",
	"collect-durable": "open loop at 100 votes/s with fsync-per-ack, strict policy and 4 journal lanes, then a stop/restart drill and acs with a lagging node: the journal's flushes set the latency",
	"election-full":   "full-crypto election at a light 60 votes/s through consensus, BB push, trustees, publish and audit: ea, bb, trustee and auditor dominate (paper Fig. 5c)",
}

var workloadNames = []string{"collect-paced", "collect-durable", "election-full"}

// newSpec sizes a workload for a run of about `seconds` seconds of voting on
// the reference 2-core box: vote counts are fixed per second of budget (so
// the same seed always gives the same inputs and the same consensus size),
// and a faster system simply finishes its window sooner. scale < 1 shrinks
// every count for smoke tests.
func newSpec(name string, seconds int, scale float64) (*spec, error) {
	n := func(perSecond float64) int {
		return max(1, int(math.Round(perSecond*float64(seconds)*scale)))
	}
	sp := &spec{Name: name, Engine: "interlocked", SetupRepeats: 3, ProbeFor: 150 * time.Millisecond}
	switch name {
	case "collect-paced":
		sp.Engine = "acs"
		sp.Warmup = n(30)
		// 25 and 50 % of what the cluster sustains on two cores (≈ 580
		// votes/s), then all it sustains. The lowest plateau, whose latency is
		// gated, gets half the budget; the 300/s plateau and the burst a
		// quarter each.
		sp.Ladder = []plateau{{150, n(75)}, {300, n(75)}}
		sp.Burst = n(140)
	case "collect-durable":
		sp.Fsync, sp.JournalPolicy, sp.JournalPool = true, vc.PolicyStrict, 4
		// A third of what the fsync-bound cluster sustains (≈ 300 votes/s): the
		// latency is a sum of flush waits, not of CPU queueing. The node the
		// drill restarts misses its votes, so acs runs with a lagging member.
		sp.Engine = "acs"
		sp.Warmup, sp.Drill = n(30), n(20)
		sp.Ladder = []plateau{{100, n(100)}}
	case "election-full":
		sp.FullCrypto = true
		sp.Warmup = n(1)
		// A tenth of what the cluster sustains: the latency a voter sees on a
		// quiet system. Every ballot costs ~30 ms of set-up, publish and audit
		// arithmetic, which is what bounds this pool.
		sp.Ladder = []plateau{{60, n(60)}}
		sp.AuditVoted, sp.AuditAbstained = 25, 25
		// Full-crypto set-up is most of this workload's wall time and, being
		// pure computation, repeats closely: two are enough.
		sp.SetupRepeats = 2
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if scale < 1 {
		sp.SetupRepeats = 1
		sp.ProbeFor = 10 * time.Millisecond
	}
	// One voter in twenty abstains, so the stores, the consensus input and
	// the BB's opened-ballot path all see unvoted ballots.
	sp.Pool = int(math.Ceil(float64(sp.totalVotes()) / 0.95))
	return sp, nil
}

func (sp *spec) timedVotes() int {
	n := sp.Burst
	for _, p := range sp.Ladder {
		n += p.Count
	}
	return n
}

// spanMask says, for each timed vote, whether the traced run records its
// spans: every stage (plateau or burst) is cut into four blocks, spans off,
// on, off, on. The blocks without spans are the baseline that
// trace.overhead_frac compares with, stage by stage.
func (sp *spec) spanMask() []bool {
	mask := make([]bool, 0, sp.timedVotes())
	stage := func(n int) {
		quarter := max(n/4, 1)
		for i := 0; i < n; i++ {
			mask = append(mask, min(i/quarter, 3)%2 == 1)
		}
	}
	for _, p := range sp.Ladder {
		stage(p.Count)
	}
	stage(sp.Burst)
	return mask
}

func (sp *spec) totalVotes() int { return sp.Warmup + sp.timedVotes() + 2*sp.Drill }

// runResult is the outcome of one run of one workload.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Problems lists every correctness-gate violation; Notes what a reader of
	// the numbers should know (which percentile a tail is, flagged plateaus).
	Problems []string `json:"problems,omitempty"`
	Notes    []string `json:"notes,omitempty"`
	// SelfTime is the traced run's self-time table, by span name.
	SelfTime []selfRow `json:"self_time,omitempty"`
}

// run carries one workload run from set-up to the verdict.
type run struct {
	sp  *spec
	ctx context.Context
	tr  *tracer // nil in the plain run
	e   *election
	dir string

	receipted []vote // votes whose verified receipt came back
	res       runResult
}

func (r *run) problemf(format string, args ...any) {
	r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
}

func (r *run) notef(format string, args ...any) {
	r.res.Notes = append(r.res.Notes, fmt.Sprintf(format, args...))
}

// record books a load phase's outcome.
func (r *run) record(votes []vote, lr *loadResult) {
	r.res.Attempted += len(votes)
	for i, v := range votes {
		if lr.OK[i] {
			r.receipted = append(r.receipted, v)
		} else {
			r.res.Failed++
		}
	}
}

package benchmark

import (
	"fmt"
	"io"
	"time"

	"ddemos/internal/transport"
)

// Standard sweep axes, matching the paper's figures. Scales are documented
// in DESIGN.md ("Substitutions").
var (
	// VCSweep is the x axis of Fig. 4a/4b/4d/4e (the paper uses 4..16).
	VCSweep = []int{4, 7, 10, 13, 16}
	// ClientSweep is the x axis of Fig. 4c/4f (paper: up to 2000).
	ClientSweep = []int{100, 500, 1000, 1500, 2000}
	// ClientSeries is the per-line concurrency of Fig. 4a/4b/4d/4e.
	ClientSeries = []int{500, 1000, 1500, 2000}
	// PoolSweep is the x axis of Fig. 5a (paper: 50M..250M, scaled ×500).
	PoolSweep = []int{100_000, 200_000, 300_000, 400_000, 500_000}
	// OptionSweep is the x axis of Fig. 5b (paper: 2..10).
	OptionSweep = []int{2, 4, 6, 8, 10}
	// CastSweep is the x axis of Fig. 5c (paper: 50k..200k, scaled ×100).
	CastSweep = []int{500, 1000, 1500, 2000}
)

// Fig4 runs the latency/throughput-vs-Nv sweeps (4a/4b LAN, 4d/4e WAN) and
// prints one row per (Nv, clients) point.
func Fig4(w io.Writer, wan bool, vcs, clients []int, ballots, votesPer, options int, tr TransportOptions) error {
	net := "LAN"
	if wan {
		net = "WAN"
	}
	fmt.Fprintf(w, "# Fig4 %s: vote collection vs #VC (n=%d ballots, m=%d%s)\n",
		net, ballots, options, tr.label())
	fmt.Fprintf(w, "%-6s %-8s %-14s %-16s\n", "#VC", "cc", "latency(ms)", "throughput(op/s)")
	for _, cc := range clients {
		for _, nv := range vcs {
			res, err := Run(Config{
				Ballots: ballots, Options: options, VC: nv,
				Clients: cc, Votes: votesPer, WAN: wan,
				TransportOptions: tr,
				Seed:             fmt.Sprintf("fig4-%s-%d-%d", net, nv, cc),
			})
			if err != nil {
				return fmt.Errorf("fig4 %s nv=%d cc=%d: %w", net, nv, cc, err)
			}
			fmt.Fprintf(w, "%-6d %-8d %-14.2f %-16.1f\n",
				nv, cc, float64(res.AvgLatency.Microseconds())/1000, res.Throughput)
		}
	}
	return nil
}

// Fig4Clients runs the throughput-vs-concurrency sweeps (4c LAN, 4f WAN).
func Fig4Clients(w io.Writer, wan bool, vcs, clients []int, ballots, votesPer, options int, tr TransportOptions) error {
	net := "LAN"
	if wan {
		net = "WAN"
	}
	fmt.Fprintf(w, "# Fig4 %s: throughput vs #cc (n=%d ballots, m=%d%s)\n",
		net, ballots, options, tr.label())
	fmt.Fprintf(w, "%-8s %-6s %-16s\n", "cc", "#VC", "throughput(op/s)")
	for _, nv := range vcs {
		for _, cc := range clients {
			res, err := Run(Config{
				Ballots: ballots, Options: options, VC: nv,
				Clients: cc, Votes: votesPer, WAN: wan,
				TransportOptions: tr,
				Seed:             fmt.Sprintf("fig4c-%s-%d-%d", net, nv, cc),
			})
			if err != nil {
				return fmt.Errorf("fig4c %s nv=%d cc=%d: %w", net, nv, cc, err)
			}
			fmt.Fprintf(w, "%-8d %-6d %-16.1f\n", cc, nv, res.Throughput)
		}
	}
	return nil
}

// Fig5a runs the throughput-vs-pool-size sweep on the disk store.
func Fig5a(w io.Writer, pools []int, votes, clients int) error {
	fmt.Fprintf(w, "# Fig5a: throughput vs n (disk store, m=2, %d votes, %d cc)\n", votes, clients)
	fmt.Fprintf(w, "%-12s %-16s %-12s\n", "n(ballots)", "throughput(op/s)", "setup(s)")
	for _, n := range pools {
		res, err := Run(Config{
			Ballots: n, Options: 2, VC: 4,
			Clients: clients, Votes: votes, Disk: true,
			Seed: fmt.Sprintf("fig5a-%d", n),
		})
		if err != nil {
			return fmt.Errorf("fig5a n=%d: %w", n, err)
		}
		fmt.Fprintf(w, "%-12d %-16.1f %-12.1f\n", n, res.Throughput, res.SetupTime.Seconds())
	}
	return nil
}

// engineLabel names the vote-set-consensus engine for figure headers.
func engineLabel(consensus string) string {
	if consensus == "" {
		return "interlocked"
	}
	return consensus
}

// label annotates a figure header with the non-default channel setup.
func (tr TransportOptions) label() string {
	if tr.Batch {
		return ", batched"
	}
	return ""
}

// Fig5bRow is one row of the Fig. 5b ablation: throughput at m options for
// each channel configuration, both over the authenticated links.
type Fig5bRow struct {
	Options int
	// Unbatched sends every protocol message as a frame of its own, one MAC
	// each.
	Unbatched float64
	// Batched adds the batched message pipeline — like-for-like with
	// Unbatched, so the delta isolates the batching win.
	Batched float64
}

// Fig5bPoint measures one m for both channel configurations.
func Fig5bPoint(m, ballots, votes, clients, maxMsgs int) (Fig5bRow, error) {
	row := Fig5bRow{Options: m}
	base := Config{
		Ballots: ballots, Options: m, VC: 4,
		Clients: clients, Votes: votes,
	}
	// One seed per m across both columns: each configuration votes the
	// identical generated election, so the delta is transport-only.
	base.Seed = fmt.Sprintf("fig5b-%d", m)
	configs := []struct {
		out  *float64
		name string
		tr   TransportOptions
	}{
		{&row.Unbatched, "unbatched", TransportOptions{}},
		{&row.Batched, "batched", TransportOptions{Batch: true, BatchMaxMessages: maxMsgs}},
	}
	for _, c := range configs {
		cfg := base
		cfg.TransportOptions = c.tr
		res, err := Run(cfg)
		if err != nil {
			return row, fmt.Errorf("fig5b m=%d %s: %w", m, c.name, err)
		}
		*c.out = res.Throughput
	}
	return row, nil
}

// Fig5b runs the throughput-vs-options sweep with the batched-vs-unbatched
// ablation columns, both over the authenticated links: one MAC per message,
// and one per batch. The delta quantifies the coalescing win on the LAN
// profile.
func Fig5b(w io.Writer, options []int, ballots, votes, clients, maxMsgs int) error {
	fmt.Fprintf(w, "# Fig5b: throughput vs m (n=%d, %d votes, %d cc, 4 VC; authenticated links, self-clocked batching)\n",
		ballots, votes, clients)
	fmt.Fprintf(w, "%-6s %-18s %-16s %-10s\n", "m", "unbatched(op/s)", "batched(op/s)", "speedup")
	for _, m := range options {
		row, err := Fig5bPoint(m, ballots, votes, clients, maxMsgs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6d %-18.1f %-16.1f %-10.2f\n", m, row.Unbatched, row.Batched, row.Speedup())
	}
	return nil
}

// Speedup is Batched over Unbatched (0 when Unbatched is 0).
func (r Fig5bRow) Speedup() float64 {
	if r.Unbatched <= 0 {
		return 0
	}
	return r.Batched / r.Unbatched
}

// Fig5c runs the phase-duration breakdown.
func Fig5c(w io.Writer, casts []int, options, clients int, consensus string) error {
	fmt.Fprintf(w, "# Fig5c: phase durations vs ballots cast (m=%d, 4 VC, 3 BB, 3 trustees, %s consensus)\n",
		options, engineLabel(consensus))
	fmt.Fprintf(w, "%-10s %-14s %-14s %-14s %-14s\n",
		"#cast", "collect(s)", "consensus(s)", "push+tally(s)", "publish(s)")
	for _, n := range casts {
		res, err := RunPhases(PhasesConfig{
			Ballots: n, Options: options, VC: 4, Clients: clients,
			Consensus: consensus,
			Seed:      fmt.Sprintf("fig5c-%d", n),
		})
		if err != nil {
			return fmt.Errorf("fig5c n=%d: %w", n, err)
		}
		fmt.Fprintf(w, "%-10d %-14.2f %-14.2f %-14.2f %-14.2f\n", n,
			res.Collection.Seconds(), res.Consensus.Seconds(),
			res.Push.Seconds(), res.Publish.Seconds())
	}
	return nil
}

// TableOneRow is one row of the paper's Table I: a protocol step and its
// time upper bound as coefficients of (Tcomp, Δ, δ) over the start time T.
type TableOneRow struct {
	Step string
	// Bound = A*Tcomp + B*Δ + C*δ, where A may depend on Nv.
	A, B, C int
}

// TableOne returns the 13 analysis rows of Table I (global-clock column)
// for a given Nv.
func TableOne(nv int) []TableOneRow {
	return []TableOneRow{
		{"V is initialized", 0, 0, 0},
		{"V submits her vote to VC", 1, 1, 0},
		{"VC receives V's ballot", 1, 1, 1},
		{"VC verifies validity, broadcasts ENDORSE", 2, 3, 1},
		{"other honest VCs receive ENDORSE", 2, 3, 2},
		{"other honest VCs verify, respond ENDORSEMENT", 3, 5, 2},
		{"VC receives the ENDORSEMENTs", 3, 5, 3},
		{"VC verifies Nv-1 messages for Nv-fv valid", nv + 2, 7, 3},
		{"VC forms UCERT, broadcasts share", nv + 3, 7, 3},
		{"other honest VCs receive share+UCERT", nv + 3, 7, 4},
		{"other honest VCs verify, broadcast shares", nv + 4, 9, 4},
		{"VC receives the shares", nv + 4, 9, 5},
		{"VC verifies Nv-1 messages for Nv-fv shares", 2*nv + 3, 11, 5},
		{"VC reconstructs receipt, sends to V", 2*nv + 4, 11, 5},
		{"V obtains her receipt", 2*nv + 4, 11, 6},
	}
}

// LANDelay is Table I's δ on the in-process LAN profile: the longest one
// Memnet hop takes, since Memnet adds jitter uniform in [0, Jitter) on top
// of the profile's fixed latency.
var LANDelay = transport.LANProfile.Latency + transport.LANProfile.Jitter

// Twait evaluates the paper's patience bound (2Nv+4)Tcomp + 12Δ + 6δ.
func Twait(nv int, tcomp, drift, delay time.Duration) time.Duration {
	return time.Duration(2*nv+4)*tcomp + 12*drift + 6*delay
}

// PrintTableOne evaluates and prints Table I for measured parameters,
// alongside the measured end-to-end receipt latency for comparison.
func PrintTableOne(w io.Writer, nv int, tcomp, drift, delay, measuredVote time.Duration) {
	fmt.Fprintf(w, "# Table I: liveness time upper bounds (Nv=%d, Tcomp=%v, Δ=%v, δ=%v)\n",
		nv, tcomp, drift, delay)
	fmt.Fprintf(w, "%-50s %-28s %-12s\n", "step", "bound (formula)", "evaluated")
	for _, row := range TableOne(nv) {
		bound := time.Duration(row.A)*tcomp + time.Duration(row.B)*drift + time.Duration(row.C)*delay
		formula := fmt.Sprintf("T + %dTcomp + %dΔ + %dδ", row.A, row.B, row.C)
		fmt.Fprintf(w, "%-50s %-28s %-12v\n", row.Step, formula, bound.Round(time.Microsecond))
	}
	tw := Twait(nv, tcomp, drift, delay)
	fmt.Fprintf(w, "Twait = (2Nv+4)Tcomp + 12Δ + 6δ = %v\n", tw.Round(time.Microsecond))
	fmt.Fprintf(w, "measured avg end-to-end receipt latency: %v (must be <= Twait: %v)\n",
		measuredVote.Round(time.Microsecond), measuredVote <= tw)
}

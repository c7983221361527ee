// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V), one testing.B benchmark per exhibit. Each benchmark runs a
// representative slice of the paper's parameter sweep and prints the same
// series rows the paper plots; cmd/ddemos-bench runs the full sweeps.
// Parameter scales (ballot pools, cast counts) are documented in DESIGN.md
// ("Substitutions"). These reproduce the paper's exhibits; performance is
// judged end to end by the benchmark under bench/ (BENCHMARK.json).
package ddemos

import (
	"fmt"
	"os"
	"testing"
	"time"

	"ddemos/internal/benchmark"
)

// Benchmark workload sizes: a single-host slice of the paper's testbed
// workload (12 machines, 200k cast ballots). Each figure keeps the paper's
// relative parameter ranges.
const (
	benchBallots = 4000
	benchVotes   = 2000
	benchOptions = 4
)

var (
	benchVCPoints     = []int{4, 10, 16}
	benchClientPoints = []int{200, 500}
)

// runFig4 is shared by the four vote-collection-vs-Nv benchmarks.
func runFig4(b *testing.B, wan bool, latency bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var lastTput float64
		var lastLat time.Duration
		for _, nv := range benchVCPoints {
			res, err := benchmark.Run(benchmark.Config{
				Ballots: benchBallots, Options: benchOptions, VC: nv,
				Clients: benchClientPoints[0], Votes: benchVotes, WAN: wan,
				Seed: b.Name(),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("nv=%d cc=%d latency=%v throughput=%.1f op/s",
				nv, benchClientPoints[0], res.AvgLatency.Round(time.Microsecond), res.Throughput)
			lastTput = res.Throughput
			lastLat = res.AvgLatency
		}
		if latency {
			b.ReportMetric(float64(lastLat.Milliseconds()), "ms/vote@16vc")
		} else {
			b.ReportMetric(lastTput, "votes/sec@16vc")
		}
	}
}

// BenchmarkFig4aLatencyVsVCLan — Fig. 4a: receipt latency vs #VC, LAN.
func BenchmarkFig4aLatencyVsVCLan(b *testing.B) { runFig4(b, false, true) }

// BenchmarkFig4bThroughputVsVCLan — Fig. 4b: throughput vs #VC, LAN.
func BenchmarkFig4bThroughputVsVCLan(b *testing.B) { runFig4(b, false, false) }

// BenchmarkFig4dLatencyVsVCWan — Fig. 4d: receipt latency vs #VC, WAN
// (25 ms inter-VC links).
func BenchmarkFig4dLatencyVsVCWan(b *testing.B) { runFig4(b, true, true) }

// BenchmarkFig4eThroughputVsVCWan — Fig. 4e: throughput vs #VC, WAN.
func BenchmarkFig4eThroughputVsVCWan(b *testing.B) { runFig4(b, true, false) }

// runFig4Clients is shared by the throughput-vs-concurrency benchmarks.
func runFig4Clients(b *testing.B, wan bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var last float64
		for _, cc := range benchClientPoints {
			res, err := benchmark.Run(benchmark.Config{
				Ballots: benchBallots, Options: benchOptions, VC: 4,
				Clients: cc, Votes: benchVotes, WAN: wan,
				Seed: b.Name(),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("cc=%d nv=4 throughput=%.1f op/s", cc, res.Throughput)
			last = res.Throughput
		}
		b.ReportMetric(last, "votes/sec")
	}
}

// BenchmarkFig4cThroughputVsClientsLan — Fig. 4c: throughput vs #cc, LAN.
func BenchmarkFig4cThroughputVsClientsLan(b *testing.B) { runFig4Clients(b, false) }

// BenchmarkFig4fThroughputVsClientsWan — Fig. 4f: throughput vs #cc, WAN.
func BenchmarkFig4fThroughputVsClientsWan(b *testing.B) { runFig4Clients(b, true) }

// BenchmarkFig5aThroughputVsPool — Fig. 5a: throughput vs ballot-pool size
// with the segmented disk store (the paper sweeps 50M–250M on PostgreSQL;
// scaled here, same ×5 pool growth).
func BenchmarkFig5aThroughputVsPool(b *testing.B) {
	pools := []int{10000, 30000, 50000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var last float64
		for _, n := range pools {
			res, err := benchmark.Run(benchmark.Config{
				Ballots: n, Options: 2, VC: 4,
				Clients: 400, Votes: 2000, Disk: true,
				Seed: b.Name(),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("n=%d throughput=%.1f op/s", n, res.Throughput)
			last = res.Throughput
		}
		b.ReportMetric(last, "votes/sec@maxpool")
	}
}

// BenchmarkFig5bThroughputVsOptions — Fig. 5b: throughput vs number of
// options m (paper: 2–10; throughput should stay nearly flat), over the
// authenticated, batched links every VC node runs.
func BenchmarkFig5bThroughputVsOptions(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var last float64
		for _, m := range []int{2, 6, 10} {
			throughput, err := benchmark.Fig5bPoint(m, benchBallots, benchVotes, 400)
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("m=%d throughput=%.1f op/s", m, throughput)
			last = throughput
		}
		b.ReportMetric(last, "votes/sec@m=10")
	}
}

// BenchmarkFig5cPhaseBreakdown — Fig. 5c: duration of every system phase
// (vote collection, vote-set consensus, push-to-BB + encrypted tally,
// publish result) vs ballots cast, full pipeline with BB and trustees.
func BenchmarkFig5cPhaseBreakdown(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, n := range []int{500, 1000} {
			res, err := benchmark.RunPhases(benchmark.PhasesConfig{
				Ballots: n, Options: benchOptions, VC: 4, Clients: 100,
				Seed: b.Name(),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("cast=%d collect=%v consensus=%v push+tally=%v publish=%v",
				n, res.Collection.Round(time.Millisecond), res.Consensus.Round(time.Millisecond),
				res.Push.Round(time.Millisecond), res.Publish.Round(time.Millisecond))
			if n == 1000 {
				b.ReportMetric(res.Publish.Seconds(), "publish-sec@1000")
			}
		}
	}
}

// BenchmarkPoolAblation — the journal pool sweep (the paper's Fig. 5a
// applied to runtime state): concurrent appenders writing protocol-shaped
// transition records through one WAL lane and through pools of 2, 4 and 8
// lanes, per-append fsync, reporting appends/sec and the speedup over one
// lane for each pool size.
func BenchmarkPoolAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := benchmark.RunPoolAblation(benchmark.PoolAblationConfig{
			Duration: 500 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range points {
			b.Logf("pool=%d appends/sec=%.0f speedup=%.2f", pt.Pool, pt.AppendsPerSec, pt.Speedup)
			b.ReportMetric(pt.AppendsPerSec, fmt.Sprintf("pool%d-appends/sec", pt.Pool))
			if pt.Pool > 1 {
				b.ReportMetric(pt.Speedup, fmt.Sprintf("pool-speedup@%d", pt.Pool))
			}
		}
	}
}

// BenchmarkTable1StepBounds — Table I: evaluates the liveness time upper
// bounds for every protocol step from measured Tcomp and the simulated
// network's δ, and checks the measured end-to-end latency against Twait.
func BenchmarkTable1StepBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tcomp, avgVote, err := benchmark.VoteMetricsSample(benchmark.Config{
			Ballots: 500, Options: benchOptions, VC: 4,
			Clients: 50, Votes: 500, Seed: b.Name(),
		})
		if err != nil {
			b.Fatal(err)
		}
		benchmark.PrintTableOne(os.Stdout, 4, tcomp, 0, benchmark.LANDelay, avgVote)
		tw := benchmark.Twait(4, tcomp, 0, benchmark.LANDelay)
		b.ReportMetric(float64(tw.Microseconds()), "Twait-us")
	}
}

// BenchmarkAblationSMRBaseline quantifies §II's design argument: the same
// pipeline with per-vote total ordering versus D-DEMOS's coordination-free
// collection, in both LAN and WAN settings.
func BenchmarkAblationSMRBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, wan := range []bool{false, true} {
			res, err := benchmark.RunAblation(1000, 200, 4, wan)
			if err != nil {
				b.Fatal(err)
			}
			net := "LAN"
			if wan {
				net = "WAN"
			}
			b.Logf("%s: d-demos %.1f op/s / %v ; +total-order %.1f op/s / %v",
				net, res.DDemosThroughput, res.DDemosLatency.Round(time.Microsecond),
				res.SMRThroughput, res.SMRLatency.Round(time.Microsecond))
			if wan {
				b.ReportMetric(res.DDemosThroughput/res.SMRThroughput, "speedup-wan")
			}
		}
	}
}

package benchmark

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"ddemos/internal/parallel"
)

// LoadConfig parameterizes one open-loop paced load run: ops are assigned
// scheduled send times on a fixed-rate grid before the run starts, and
// every latency is measured against that schedule — not against the moment
// the request actually left. A saturated system therefore shows its queue
// in the tail instead of silently slowing the generator down (coordinated
// omission).
type LoadConfig struct {
	// Rate is the target send rate in operations per second (> 0).
	Rate float64
	// Duration is the length of the send schedule; the run itself lasts
	// until the last response (or timeout) lands.
	Duration time.Duration
	// Workers bounds in-flight operations (0 = DefaultLoadWorkers). If all
	// workers are busy when an op's scheduled time arrives, the op starts
	// late and the lateness is part of its measured latency — that is the
	// open-loop contract, so size Workers ≥ Rate × expected p99.
	Workers int
	// Timeout bounds each operation's context (0 = 10s).
	Timeout time.Duration
}

// DefaultLoadWorkers is the default in-flight bound: enough for 10k op/s
// at ~50ms backend latency before the generator itself queues.
const DefaultLoadWorkers = 512

// LoadResult is the outcome of one paced run.
type LoadResult struct {
	Scheduled int           // ops on the schedule
	Completed int           // ops that got a success response
	Errors    int           // ops that returned an error
	Skipped   int           // ops abandoned because the run context ended
	Wall      time.Duration // first scheduled send to last response
	// Throughput is successful ops per wall-clock second.
	Throughput float64
	// Hist holds per-op latency vs *scheduled* send time (successes only).
	Hist *Histogram
	// MaxStartLag is the worst lateness between an op's scheduled send
	// time and the moment a worker actually picked it up — the generator's
	// own saturation gauge. If this rivals the measured tail, raise
	// Workers before blaming the system under test.
	MaxStartLag time.Duration
	// FirstErr samples the first error for diagnostics.
	FirstErr error
}

// RunLoad drives send on the open-loop schedule described by cfg. send is
// called concurrently from the worker pool; op is the schedule index.
// RunLoad returns once every scheduled op completed, errored, or was
// skipped after ctx ended.
func RunLoad(ctx context.Context, cfg LoadConfig, send func(ctx context.Context, op int) error) (*LoadResult, error) {
	if cfg.Rate <= 0 {
		return nil, errors.New("benchmark: LoadConfig.Rate must be > 0")
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("benchmark: LoadConfig.Duration must be > 0")
	}
	n := int(cfg.Rate * cfg.Duration.Seconds())
	if n < 1 {
		n = 1
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = DefaultLoadWorkers
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	interval := time.Duration(float64(time.Second) / cfg.Rate)

	res := &LoadResult{Scheduled: n, Hist: NewHistogram()}
	var completed, failed, skipped atomic.Int64
	var maxLag atomic.Int64
	var firstErr atomic.Value

	start := time.Now()
	parallel.Run(workers, n, func(i int) {
		sched := start.Add(time.Duration(i) * interval)
		if wait := time.Until(sched); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				skipped.Add(1)
				return
			}
		} else if ctx.Err() != nil {
			skipped.Add(1)
			return
		}
		if lag := time.Since(sched); lag > 0 {
			for {
				cur := maxLag.Load()
				if int64(lag) <= cur || maxLag.CompareAndSwap(cur, int64(lag)) {
					break
				}
			}
		}
		opCtx, cancel := context.WithTimeout(ctx, timeout)
		err := send(opCtx, i)
		cancel()
		if err != nil {
			failed.Add(1)
			firstErr.CompareAndSwap(nil, err)
			return
		}
		completed.Add(1)
		res.Hist.Record(time.Since(sched))
	})
	res.Wall = time.Since(start)
	res.Completed = int(completed.Load())
	res.Errors = int(failed.Load())
	res.Skipped = int(skipped.Load())
	res.MaxStartLag = time.Duration(maxLag.Load())
	if err, ok := firstErr.Load().(error); ok {
		res.FirstErr = err
	}
	if res.Wall > 0 {
		res.Throughput = float64(res.Completed) / res.Wall.Seconds()
	}
	return res, nil
}

// LoadReport is the JSON document ddemos-loadgen -out writes. ddemos-cluster
// reads it back, fills in the phases only the orchestrator observes, and
// writes it to its own -out. Latencies are milliseconds against the
// scheduled send time.
type LoadReport struct {
	TargetRate  float64 `json:"target_rate"`
	VotesPerSec float64 `json:"votes_per_s"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	P999Ms      float64 `json:"p999_ms"`
	MaxMs       float64 `json:"max_ms"`
	Sent        int     `json:"sent"`
	Errors      int     `json:"errors"`
	Skipped     int     `json:"skipped"`
	// SchedLagMs is the generator's worst pickup lateness (MaxStartLag).
	SchedLagMs float64 `json:"sched_lag_ms"`
	// DistinctSerials is how many distinct ballot serials the run voted:
	// with zero errors the published tally must sum to exactly this.
	DistinctSerials int `json:"distinct_serials"`

	// ConsensusPushS runs from the election end to the last VC's exit
	// (vote-set consensus and BB push), PublishS from there to a
	// majority-readable Result, and ChurnRestarts counts -churn restarts.
	// ddemos-cluster sets them; a loadgen-only report leaves them out.
	ConsensusPushS float64 `json:"consensus_push_s,omitempty"`
	PublishS       float64 `json:"publish_s,omitempty"`
	ChurnRestarts  int     `json:"churn_restarts,omitempty"`
}

// Report condenses r into the LoadReport of a run at targetRate that voted
// distinctSerials serials.
func (r *LoadResult) Report(targetRate float64, distinctSerials int) LoadReport {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return LoadReport{
		TargetRate:      targetRate,
		VotesPerSec:     r.Throughput,
		P50Ms:           ms(r.Hist.Quantile(0.50)),
		P99Ms:           ms(r.Hist.Quantile(0.99)),
		P999Ms:          ms(r.Hist.Quantile(0.999)),
		MaxMs:           ms(r.Hist.Max()),
		Sent:            r.Scheduled,
		Errors:          r.Errors,
		Skipped:         r.Skipped,
		SchedLagMs:      ms(r.MaxStartLag),
		DistinctSerials: distinctSerials,
	}
}

// WriteFile writes the report to path as indented JSON.
func (r LoadReport) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644) //nolint:gosec // a report, not a secret
}

// ReadLoadReport reads a report WriteFile wrote.
func ReadLoadReport(path string) (LoadReport, error) {
	var rep LoadReport
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &rep)
	}
	return rep, err
}

// Summary renders the one-line human-readable digest the load tools print.
func (r *LoadResult) Summary(targetRate float64) string {
	return fmt.Sprintf(
		"%d scheduled, %d ok, %d errors, %d skipped in %v (%.1f/sec achieved, target %.1f)\n"+
			"latency vs schedule: p50=%v p99=%v p999=%v max=%v (mean %v, max start lag %v)",
		r.Scheduled, r.Completed, r.Errors, r.Skipped, r.Wall.Round(time.Millisecond),
		r.Throughput, targetRate,
		r.Hist.Quantile(0.50).Round(10*time.Microsecond),
		r.Hist.Quantile(0.99).Round(10*time.Microsecond),
		r.Hist.Quantile(0.999).Round(10*time.Microsecond),
		r.Hist.Max().Round(10*time.Microsecond),
		r.Hist.Mean().Round(10*time.Microsecond),
		r.MaxStartLag.Round(10*time.Microsecond))
}

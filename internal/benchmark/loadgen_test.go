package benchmark

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunLoadPacesToSchedule(t *testing.T) {
	// 2000/s for 150ms = 300 ops with an instant sender: the run must
	// take at least the schedule length (open loop sends on the grid, it
	// does not blast back-to-back) and complete every op.
	var sent atomic.Int64
	res, err := RunLoad(context.Background(), LoadConfig{Rate: 2000, Duration: 150 * time.Millisecond},
		func(ctx context.Context, op int) error { sent.Add(1); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled != 300 || res.Completed != 300 || res.Errors != 0 || res.Skipped != 0 {
		t.Fatalf("scheduled=%d completed=%d errors=%d skipped=%d",
			res.Scheduled, res.Completed, res.Errors, res.Skipped)
	}
	if sent.Load() != 300 {
		t.Fatalf("sender called %d times", sent.Load())
	}
	// The last op is scheduled at 299/2000 s ≈ 149.5ms after start.
	if res.Wall < 145*time.Millisecond {
		t.Fatalf("wall = %v: ops were not paced onto the schedule", res.Wall)
	}
	if res.Hist.Count() != 300 {
		t.Fatalf("hist count = %d", res.Hist.Count())
	}
}

func TestRunLoadMeasuresAgainstScheduleNotSendTime(t *testing.T) {
	// One worker, 100/s for 100ms = 10 ops, each taking 30ms: op k cannot
	// start before k*30ms while its schedule says k*10ms. A generator that
	// measured from the actual send time would report ~30ms for every op
	// (coordinated omission); measuring against the schedule must surface
	// the queueing delay — the last op's latency is ≥ 9*30 − 90 + 30 ≈
	// 210ms.
	res, err := RunLoad(context.Background(),
		LoadConfig{Rate: 100, Duration: 100 * time.Millisecond, Workers: 1},
		func(ctx context.Context, op int) error { time.Sleep(30 * time.Millisecond); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 10 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if max := res.Hist.Max(); max < 180*time.Millisecond {
		t.Fatalf("max latency = %v: queueing delay not measured against the schedule", max)
	}
	if res.MaxStartLag < 100*time.Millisecond {
		t.Fatalf("max start lag = %v: generator saturation not surfaced", res.MaxStartLag)
	}
}

func TestRunLoadContextCancelSkipsRemainder(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := RunLoad(ctx, LoadConfig{Rate: 100, Duration: 10 * time.Second},
		func(ctx context.Context, op int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled run still took %v", elapsed)
	}
	if res.Skipped == 0 {
		t.Fatalf("no ops skipped after cancellation: %+v", res)
	}
	if res.Completed+res.Errors+res.Skipped != res.Scheduled {
		t.Fatalf("ops unaccounted for: %+v", res)
	}
}

func TestRunLoadCountsErrors(t *testing.T) {
	boom := errors.New("boom")
	res, err := RunLoad(context.Background(), LoadConfig{Rate: 1000, Duration: 20 * time.Millisecond},
		func(ctx context.Context, op int) error {
			if op%2 == 1 {
				return boom
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != res.Scheduled/2 || res.Completed != res.Scheduled-res.Errors {
		t.Fatalf("completed=%d errors=%d of %d", res.Completed, res.Errors, res.Scheduled)
	}
	if !errors.Is(res.FirstErr, boom) {
		t.Fatalf("FirstErr = %v", res.FirstErr)
	}
	// Only successes are in the histogram.
	if res.Hist.Count() != int64(res.Completed) {
		t.Fatalf("hist count = %d, completed = %d", res.Hist.Count(), res.Completed)
	}
}

func TestLoadReportCarriesTheRun(t *testing.T) {
	boom := errors.New("boom")
	res, err := RunLoad(context.Background(), LoadConfig{Rate: 1000, Duration: 20 * time.Millisecond},
		func(ctx context.Context, op int) error {
			if op == 0 {
				return boom
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report(1000, 7)
	if rep.TargetRate != 1000 || rep.Sent != res.Scheduled || rep.Errors != 1 ||
		rep.Skipped != 0 || rep.DistinctSerials != 7 || rep.P50Ms <= 0 || rep.MaxMs < rep.P50Ms {
		t.Fatalf("report = %+v from %+v", rep, res)
	}
	path := filepath.Join(t.TempDir(), "load.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if back, err := ReadLoadReport(path); err != nil || back != rep {
		t.Fatalf("read back %+v, %v; wrote %+v", back, err, rep)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(b, &fields); err != nil {
		t.Fatal(err)
	}
	// The orchestrator's phase fields stay out of a loadgen-only report.
	for _, k := range []string{"errors", "distinct_serials", "p999_ms", "sched_lag_ms"} {
		if _, ok := fields[k]; !ok {
			t.Errorf("report JSON lacks %q: %s", k, b)
		}
	}
	for _, k := range []string{"consensus_push_s", "publish_s", "churn_restarts"} {
		if _, ok := fields[k]; ok {
			t.Errorf("loadgen-only report JSON carries %q: %s", k, b)
		}
	}
}

func TestRunLoadRejectsBadConfig(t *testing.T) {
	if _, err := RunLoad(context.Background(), LoadConfig{Rate: 0, Duration: time.Second}, nil); err == nil {
		t.Fatal("zero rate must be rejected")
	}
	if _, err := RunLoad(context.Background(), LoadConfig{Rate: 1, Duration: 0}, nil); err == nil {
		t.Fatal("zero duration must be rejected")
	}
}

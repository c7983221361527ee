package benchmark

import (
	"testing"
	"time"
)

func TestSmokeRun(t *testing.T) {
	res, err := Run(Config{Ballots: 200, Options: 2, VC: 4, Clients: 20, Votes: 200, Seed: "smoke"})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("tput=%.1f lat=%v errors=%d setup=%v", res.Throughput, res.AvgLatency, res.Errors, res.SetupTime)
	if res.Errors > 0 {
		t.Fatalf("%d errors", res.Errors)
	}
}
func TestSmokePhases(t *testing.T) {
	res, err := RunPhases(PhasesConfig{Ballots: 60, Options: 3, VC: 4, Clients: 10, Seed: "smoke"})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("collect=%v consensus=%v push=%v publish=%v counts=%v", res.Collection, res.Consensus, res.Push, res.Publish, res.Counts)
}
func TestSmokePoolAblation(t *testing.T) {
	// A fast pass over the journal pool sweep: correctness of the harness,
	// not the speedup.
	points, err := RunPoolAblation(PoolAblationConfig{
		Pools: []int{1, 4}, Workers: 8, Duration: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		t.Logf("pool=%d appends/sec=%.0f speedup=%.2f", p.Pool, p.AppendsPerSec, p.Speedup)
		if p.AppendsPerSec <= 0 {
			t.Fatalf("pool %d measured no appends", p.Pool)
		}
	}
	// No speedup assertion here: a 60ms window under full-suite load is
	// noise. BenchmarkPoolAblation measures it at a 500ms window.
}

func TestSmokePoolElection(t *testing.T) {
	if testing.Short() {
		t.Skip("fsync-per-transition election in short mode")
	}
	points, err := RunPoolElectionAblation([]int{1, 2}, 80, 80, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		t.Logf("pool=%d votes/sec=%.1f speedup=%.2f", p.Pool, p.AppendsPerSec, p.Speedup)
	}
}

func TestSmokeAblation(t *testing.T) {
	res, err := RunAblation(100, 10, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ddemos=%.1f/%v smr=%.1f/%v", res.DDemosThroughput, res.DDemosLatency, res.SMRThroughput, res.SMRLatency)
}

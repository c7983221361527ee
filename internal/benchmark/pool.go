package benchmark

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ddemos/internal/journal"
	"ddemos/internal/vc"
)

// PoolPoint is one column of the pool-size ablation: the journal-append
// throughput at one lane count, Fig. 5a-style (the paper sweeps its
// PostgreSQL connection pool; here the pool is the journal's WAL-lane count,
// the same knob applied to runtime state).
type PoolPoint struct {
	Pool          int     // WAL lanes
	AppendsPerSec float64 // appended transition records per second
	Speedup       float64 // vs the first (one-lane) point
}

// PoolAblationConfig tunes RunPoolAblation.
type PoolAblationConfig struct {
	// Pools is the x axis (default 1, 2, 4, 8). The first entry is the
	// speedup baseline and should be 1.
	Pools []int
	// Workers is the number of concurrent appenders — the election-side
	// equivalent of concurrent responder flows journaling transitions
	// (default 16).
	Workers int
	// Duration is the measured window per pool point (default 300ms).
	Duration time.Duration
	// NoFsync disables the per-append fsync. The zero value (fsync on) is
	// the strongest durability, where lane parallelism pays the most — and
	// the configuration the paper's database pool runs.
	NoFsync bool
	// Dir hosts the per-point journal directories (default: a temp dir).
	Dir string
}

func (c PoolAblationConfig) withDefaults() PoolAblationConfig {
	if len(c.Pools) == 0 {
		c.Pools = []int{1, 2, 4, 8}
	}
	if c.Workers <= 0 {
		c.Workers = 16
	}
	if c.Duration <= 0 {
		c.Duration = 300 * time.Millisecond
	}
	return c
}

// RunPoolAblation measures journal-append throughput across pool sizes:
// Workers concurrent appenders write protocol-shaped voted-transition
// records (distinct serials, so they spread over the lanes) for Duration per
// point. With per-append fsync one lane serializes every append behind one
// disk flush; several lanes flush independently, which is the
// scaling the paper's Fig. 5a pool sweep shows for its database-backed
// runtime state.
func RunPoolAblation(cfg PoolAblationConfig) ([]PoolPoint, error) {
	cfg = cfg.withDefaults()
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "ddemos-pool-ablation")
		if err != nil {
			return nil, err
		}
		defer func() { _ = os.RemoveAll(dir) }()
	}
	var points []PoolPoint
	for i, pool := range cfg.Pools {
		tput, err := measurePoolPoint(fmt.Sprintf("%s/pool-%d-%d", dir, i, pool), pool, cfg)
		if err != nil {
			return nil, fmt.Errorf("pool ablation (pool=%d): %w", pool, err)
		}
		pt := PoolPoint{Pool: pool, AppendsPerSec: tput, Speedup: 1}
		if len(points) > 0 && points[0].AppendsPerSec > 0 {
			pt.Speedup = tput / points[0].AppendsPerSec
		}
		points = append(points, pt)
	}
	return points, nil
}

func measurePoolPoint(dir string, pool int, cfg PoolAblationConfig) (float64, error) {
	j, err := journal.Open(dir, journal.Options{
		Pool:  pool,
		Fsync: !cfg.NoFsync,
		// The measurement isolates append throughput; snapshots are the
		// concurrent-capture path benchmarked separately.
		SnapshotEvery: 1 << 30,
	})
	if err != nil {
		return 0, err
	}
	var total atomic.Int64
	errCh := make(chan error, cfg.Workers)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			code := []byte("pool-ablation-code-0")
			receipt := []byte("recv0000")
			serial := uint64(w + 1)
			for time.Now().Before(deadline) {
				rec := vc.EncodeVotedRecord(serial, code, receipt)
				if err := j.Append([][]byte{rec}); err != nil {
					errCh <- err
					return
				}
				total.Add(1)
				serial += uint64(cfg.Workers)
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	// Workers check the deadline before each append, so the last appends
	// (full fsyncs) complete past it — divide by the time actually spent,
	// not the configured window.
	elapsed := time.Since(start)
	cerr := j.Close()
	if err := <-errCh; err != nil {
		return 0, err
	}
	if cerr != nil {
		return 0, cerr
	}
	return float64(total.Load()) / elapsed.Seconds(), nil
}

// RunPoolElectionAblation is the end-to-end flavour of the pool sweep: the
// same LAN-profile vote-collection workload per pool size, every node
// journaling with per-transition fsync (the configuration where the journal
// is the bottleneck, as the database is in the paper's Fig. 5a). Throughput
// is receipts per second.
func RunPoolElectionAblation(pools []int, ballots, votes, clients, nv int) ([]PoolPoint, error) {
	var points []PoolPoint
	for _, pool := range pools {
		res, err := Run(Config{
			Ballots: ballots, Options: 2, VC: nv,
			Clients: clients, Votes: votes,
			WAL: true, WALFsync: true, JournalPool: pool,
			Seed: fmt.Sprintf("pool-ablation-%d", pool),
		})
		if err != nil {
			return nil, fmt.Errorf("pool election ablation (pool=%d): %w", pool, err)
		}
		pt := PoolPoint{Pool: pool, AppendsPerSec: res.Throughput, Speedup: 1}
		if len(points) > 0 && points[0].AppendsPerSec > 0 {
			pt.Speedup = res.Throughput / points[0].AppendsPerSec
		}
		points = append(points, pt)
	}
	return points, nil
}

// PrintPoolElectionAblation formats the end-to-end sweep.
func PrintPoolElectionAblation(w io.Writer, points []PoolPoint) {
	fmt.Fprintf(w, "# Pool ablation (election): LAN vote collection vs journal pool size, per-transition fsync\n")
	fmt.Fprintf(w, "%-8s %-20s %-10s\n", "pool", "votes/sec", "speedup")
	for _, p := range points {
		fmt.Fprintf(w, "%-8d %-20.1f %-10.2f\n", p.Pool, p.AppendsPerSec, p.Speedup)
	}
}

// PrintPoolAblation formats the sweep Fig. 5a-style: one row per pool size.
func PrintPoolAblation(w io.Writer, points []PoolPoint) {
	fmt.Fprintf(w, "# Pool ablation: journal append throughput vs WAL-lane pool size (Fig. 5a analogue)\n")
	fmt.Fprintf(w, "%-8s %-20s %-10s\n", "pool", "appends/sec", "speedup")
	for _, p := range points {
		fmt.Fprintf(w, "%-8d %-20.0f %-10.2f\n", p.Pool, p.AppendsPerSec, p.Speedup)
	}
}

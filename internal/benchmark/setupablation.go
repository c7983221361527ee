package benchmark

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ddemos/internal/ea"
	"ddemos/internal/httpapi"
	"ddemos/internal/store"
)

// SetupPoint is the measured EA → VC setup handoff: the EA emits segment
// directories through store.Writer as ballots generate, and the VC opens
// them directly.
type SetupPoint struct {
	SetupSec     float64 // EA generate + write every payload file
	PeakHeapMB   float64 // peak Go heap above the pre-run baseline, MiB
	ColdStartSec float64 // VC boot: payload on disk → first ballot served
}

// SetupAblationConfig tunes RunSetupAblation.
type SetupAblationConfig struct {
	// Ballots is the pool size (default 50000; the figure run uses 1M —
	// see cmd/ddemos-bench -fig setup).
	Ballots int
	// Options is m, the per-part line count (default 2).
	Options int
	// VC is the number of vote-collector payloads generated (default 4).
	VC int
	// SegmentBallots is the emitted segment capacity (default 10000, so
	// the default pool spans several segments).
	SegmentBallots int
	// Dir hosts the payload files (default: a temp dir).
	Dir string
}

func (c SetupAblationConfig) withDefaults() SetupAblationConfig {
	if c.Ballots <= 0 {
		c.Ballots = 50_000
	}
	if c.Options <= 0 {
		c.Options = 2
	}
	if c.VC <= 0 {
		c.VC = 4
	}
	if c.SegmentBallots <= 0 {
		c.SegmentBallots = 10_000
	}
	return c
}

// heapSampler tracks peak heap allocation over a measured region. Sampling
// (rather than a single before/after read) catches the transient peak —
// exactly what an O(pool) handoff produces and an O(segment) one must not.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
	base uint64
}

func startHeapSampler() *heapSampler {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), base: ms.HeapAlloc, peak: ms.HeapAlloc}
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > s.peak {
					s.peak = ms.HeapAlloc
				}
			}
		}
	}()
	return s
}

// Finish stops sampling and returns the peak heap growth in bytes.
func (s *heapSampler) Finish() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	close(s.stop)
	<-s.done
	if ms.HeapAlloc > s.peak {
		s.peak = ms.HeapAlloc
	}
	if s.peak < s.base {
		return 0
	}
	return s.peak - s.base
}

// setupParams builds the seeded, VC-only election parameters: the ablation
// measures the EA → VC handoff, so the BB/trustee payloads — whose
// ElGamal/ZK work dwarfs the handoff — are left out.
func setupParams(cfg SetupAblationConfig) ea.Params {
	return ea.Params{
		ElectionID:  "setup-ablation",
		Options:     optionNames(cfg.Options),
		NumBallots:  cfg.Ballots,
		NumVC:       cfg.VC,
		NumBB:       3,
		NumTrustees: 3,
		VotingStart: time.Unix(1700000000, 0),
		VotingEnd:   time.Unix(1700000000, 0).Add(12 * time.Hour),
		Seed:        []byte("setup-ablation"),
		VCOnly:      true,
	}
}

func optionNames(m int) []string {
	out := make([]string, m)
	for i := range out {
		out[i] = fmt.Sprintf("option-%d", i)
	}
	return out
}

// RunSetupAblation measures EA → VC setup end to end over a seeded
// election: SetupStream emits each ballot once, straight into per-VC segment
// directories and slim payloads, and the VC's cold start opens the pre-built
// directory. Reported: wall time to generate and write every payload, peak
// heap while doing it, and the cold-start time from payload to first served
// ballot. The peak must stay O(segment + reorder window) whatever the pool
// size; the CI baseline gates it as an absolute ceiling.
func RunSetupAblation(cfg SetupAblationConfig) (SetupPoint, error) {
	cfg = cfg.withDefaults()
	var pt SetupPoint
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "ddemos-setup-ablation")
		if err != nil {
			return pt, err
		}
		defer func() { _ = os.RemoveAll(dir) }()
	}
	// A fresh subdirectory, so a rerun into the same Dir starts clean.
	dir = filepath.Join(dir, "payloads")
	if err := os.RemoveAll(dir); err != nil {
		return pt, err
	}
	sampler := startHeapSampler()
	begin := time.Now()
	writers := make([]*store.Writer, cfg.VC)
	for i := range writers {
		w, err := store.NewWriter(filepath.Join(dir, fmt.Sprintf("vc-%d-ballots", i)), store.WriterOptions{SegmentBallots: cfg.SegmentBallots})
		if err != nil {
			return pt, err
		}
		writers[i] = w
	}
	sd, err := ea.SetupStream(setupParams(cfg), ea.StreamOptions{}, func(e *ea.Emission) error {
		for i, w := range writers {
			if err := w.Append(e.VC[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		for _, w := range writers {
			w.Abort()
		}
		return pt, err
	}
	for _, w := range writers {
		seg, err := w.Finish()
		if err != nil {
			return pt, err
		}
		_ = seg.Close()
	}
	for i, v := range sd.VC {
		v.BallotsDir = fmt.Sprintf("vc-%d-ballots", i)
		if err := httpapi.WriteGobFile(filepath.Join(dir, fmt.Sprintf("vc-%d.gob", i)), v); err != nil {
			return pt, err
		}
	}
	pt.SetupSec = time.Since(begin).Seconds()
	pt.PeakHeapMB = float64(sampler.Finish()) / (1 << 20)

	begin = time.Now()
	var init ea.VCInit
	if err := httpapi.ReadGobFile(filepath.Join(dir, "vc-0.gob"), &init); err != nil {
		return pt, err
	}
	seg, err := store.OpenSegmented(filepath.Join(dir, init.BallotsDir))
	if err != nil {
		return pt, err
	}
	defer func() { _ = seg.Close() }()
	if _, err := seg.Get(uint64(cfg.Ballots)); err != nil {
		return pt, err
	}
	pt.ColdStartSec = time.Since(begin).Seconds()
	return pt, nil
}

// PrintSetupAblation formats the measurement.
func PrintSetupAblation(w io.Writer, p SetupPoint, cfg SetupAblationConfig) {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "# Setup ablation: EA → VC handoff, %d-ballot pool (m=%d, %d VC, %d-ballot segments)\n",
		cfg.Ballots, cfg.Options, cfg.VC, cfg.SegmentBallots)
	fmt.Fprintf(w, "%-12s %-14s %-16s\n", "setup-sec", "peak-heap-MB", "vc-coldstart-sec")
	fmt.Fprintf(w, "%-12.2f %-14.1f %-16.3f\n", p.SetupSec, p.PeakHeapMB, p.ColdStartSec)
}

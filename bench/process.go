package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// procSnapshot is the process-wide cost counters at one instant.
type procSnapshot struct {
	at       time.Time
	cpu      time.Duration // user + system
	mallocs  uint64
	allocB   uint64
	gcPauseN uint64 // cumulative GC pause, ns
}

func takeProcSnapshot() procSnapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnapshot{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		allocB:   ms.TotalAlloc,
		gcPauseN: ms.PauseTotalNs,
	}
}

// procDelta is what the process spent between two snapshots.
type procDelta struct {
	Wall, CPU time.Duration
	Mallocs   uint64
	AllocB    uint64
	GCPause   time.Duration
}

func (a procSnapshot) until(b procSnapshot) procDelta {
	return procDelta{
		Wall:    b.at.Sub(a.at),
		CPU:     b.cpu - a.cpu,
		Mallocs: b.mallocs - a.mallocs,
		AllocB:  b.allocB - a.allocB,
		GCPause: time.Duration(b.gcPauseN - a.gcPauseN), //nolint:gosec // small
	}
}

// heapSampler polls the live heap every 100 ms (runtime/metrics, so without
// stopping the world) and remembers the peak.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > h.peak {
				h.peak = v.Uint64()
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the largest heap it saw.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}

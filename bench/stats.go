package main

import (
	"math"
	"sort"
)

// samples is a set of measurements of one quantity (latencies in ms, mostly).
// The benchmark keeps every sample: the largest run records ~10^4 of them, so
// exact order statistics are cheaper than any sketch.
type samples []float64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of a sorted
// set; 0 for an empty one.
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func median(v []float64) float64 { return samples(v).sorted().percentile(50) }

// tailLadder lists the percentiles a tail may be reported at, lowest first.
var tailLadder = []float64{90, 95, 97, 98, 99}

// tailPercentile is the highest percentile of the ladder that has at least
// ten of n samples beyond it — the rule every reported tail follows, so a
// "p99" over too few samples is never the maximum in disguise. The ladder
// stops at 99: no workload here is long enough for a meaningful p99.9.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= 10 {
			best = p
		}
	}
	return best
}

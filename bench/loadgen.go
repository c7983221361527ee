package main

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// vote is one voter's generated intent: which ballot, which part and option
// of it, and which VC node receives it. The code and the expected receipt
// are read off the ballot when the vote is sent.
type vote struct {
	Serial uint64
	Part   uint8
	Option int
	Node   int
}

// genVotes draws the vote list of one run from the seed alone: count voters
// picked (and ordered) by a seeded shuffle of the pool's serials, the rest
// abstain; each voter picks a part, an option and a VC node uniformly.
func genVotes(seed uint64, pool, count, options, nodes int) []vote {
	rng := rand.New(rand.NewPCG(seed, 0xD0DE305)) //nolint:gosec // workload generation
	order := rng.Perm(pool)
	votes := make([]vote, count)
	for i := range votes {
		votes[i] = vote{
			Serial: uint64(order[i]) + 1, //nolint:gosec // non-negative
			Part:   uint8(rng.IntN(2)),   //nolint:gosec // 0 or 1
			Option: rng.IntN(options),
			Node:   rng.IntN(nodes),
		}
	}
	return votes
}

// sendFunc casts votes[i] and reports whether a verified receipt came back.
type sendFunc func(ctx context.Context, i int) bool

// loadResult is what a load generator measured, indexed like its vote list.
type loadResult struct {
	LatencyMs []float64 // send (closed loop) or scheduled send (open loop) → verified receipt; 0 where the vote failed
	OK        []bool
	LagMs     []float64 // open loop only: actual send − scheduled send
	Wall      time.Duration
}

func (r *loadResult) failed() int {
	n := 0
	for _, ok := range r.OK {
		if !ok {
			n++
		}
	}
	return n
}

// okLatencies returns the latencies of the verified votes in [from, to), in
// send order.
func (r *loadResult) okLatencies(from, to int) samples {
	out := make(samples, 0, to-from)
	for i := from; i < to; i++ {
		if r.OK[i] {
			out = append(out, r.LatencyMs[i])
		}
	}
	return out
}

// runClosed casts n votes from `clients` goroutines, each sending its next
// vote only when the previous receipt is back: a closed loop, so a slower
// system is offered less load.
func runClosed(ctx context.Context, n, clients int, send sendFunc) *loadResult {
	res := &loadResult{LatencyMs: make([]float64, n), OK: make([]bool, n)}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				res.OK[i] = send(ctx, i)
				res.LatencyMs[i] = float64(time.Since(t0)) / 1e6
			}
		}()
	}
	wg.Wait()
	res.Wall = time.Since(start)
	return res
}

// plateau is one step of an open-loop rate ladder.
type plateau struct {
	Rate  float64 // votes per second
	Count int
}

// schedule returns each vote's due time as an offset from the start.
func schedule(ladder []plateau) []time.Duration {
	var due []time.Duration
	var at time.Duration
	for _, p := range ladder {
		gap := time.Duration(float64(time.Second) / p.Rate)
		for i := 0; i < p.Count; i++ {
			due = append(due, at)
			at += gap
		}
	}
	return due
}

// runPaced casts votes on a fixed schedule whatever the system does — an
// open loop, the arrival pattern of independent voters — with at most
// maxInFlight outstanding. Latency runs from the *scheduled* send: when the
// target stalls and sends fall behind, the wait of every delayed vote is
// counted (no coordinated omission), and LagMs says how late the generator
// itself ran.
func runPaced(ctx context.Context, due []time.Duration, maxInFlight int, send sendFunc) *loadResult {
	n := len(due)
	res := &loadResult{LatencyMs: make([]float64, n), OK: make([]bool, n), LagMs: make([]float64, n)}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < maxInFlight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				scheduled := start.Add(due[i])
				if wait := time.Until(scheduled); wait > 0 {
					time.Sleep(wait)
				}
				res.LagMs[i] = float64(time.Since(scheduled)) / 1e6
				res.OK[i] = send(ctx, i)
				res.LatencyMs[i] = float64(time.Since(scheduled)) / 1e6
			}
		}()
	}
	wg.Wait()
	res.Wall = time.Since(start)
	return res
}

// Open-loop acceptance limits: a plateau counts as sustained when its tail
// stays under the latency limit, no vote failed, and the last third of its
// votes was not served markedly slower than the first — a queue that keeps
// growing shows there before it shows in the percentile.
const (
	latencyLimitMs = 100.0
	backlogFactor  = 2.0
)

// plateauStats summarises one plateau of a paced run.
type plateauStats struct {
	Rate      float64
	Achieved  float64 // verified receipts ÷ (first scheduled send → last receipt)
	P50, Tail float64
	TailPct   float64
	MaxLagMs  float64
	TailLagMs float64 // start lag at the tail's percentile
	Sustained bool
	// LagDominant flags a plateau whose start lag, at the percentile the tail
	// is taken at, exceeds a tenth of that tail: the tail is then the
	// generator's, not the system's.
	LagDominant bool
}

// summarisePlateau covers votes [from, to) of a paced run with schedule due.
func summarisePlateau(r *loadResult, due []time.Duration, from, to int, rate float64) plateauStats {
	ok := r.okLatencies(from, to)
	sorted := ok.sorted()
	st := plateauStats{Rate: rate, TailPct: tailPercentile(len(ok))}
	st.P50 = sorted.percentile(50)
	st.Tail = sorted.percentile(st.TailPct)
	failed := 0
	lastDone := 0.0
	var lags samples
	for i := from; i < to; i++ {
		if !r.OK[i] {
			failed++
			continue
		}
		lags = append(lags, r.LagMs[i])
		lastDone = max(lastDone, float64(due[i]-due[from])/1e6+r.LatencyMs[i])
	}
	if lastDone > 0 {
		st.Achieved = float64(len(ok)) / (lastDone / 1e3)
	}
	third := (to - from) / 3
	first, last := r.okLatencies(from, from+third).mean(), r.okLatencies(to-third, to).mean()
	st.Sustained = len(ok) > 0 && failed == 0 &&
		st.Tail <= latencyLimitMs && last <= backlogFactor*first
	lags = lags.sorted()
	st.MaxLagMs = lags.percentile(100)
	st.TailLagMs = lags.percentile(st.TailPct)
	st.LagDominant = st.TailLagMs > st.Tail/10
	return st
}

// maxRateOK is the highest plateau rate that was sustained; 0 if none was.
func maxRateOK(stats []plateauStats) float64 {
	best := 0.0
	for _, s := range stats {
		if s.Sustained && s.Rate > best {
			best = s.Rate
		}
	}
	return best
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ddemos/internal/auditor"
	"ddemos/internal/bb"
	"ddemos/internal/store"
	"ddemos/internal/vc"
)

// runWorkload runs one workload once: set-up (repeated for setup_s), warm-up,
// the timed voting window, the restart drill where the workload has one,
// polls close → outcome, audit, and the correctness gate. The plain run
// (traced false) fills the end-to-end metrics; the traced run records spans
// around every call into a layer, runs the layer probes and fills the
// per-layer metrics instead. outDir receives the run's scratch directory
// (removed afterwards) and, traced, trace-<workload>.json.
func runWorkload(ctx context.Context, sp *spec, seed uint64, traced bool, outDir string) (*runResult, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()

	r := &run{sp: sp, ctx: ctx, dir: dir}
	r.res = runResult{Workload: sp.Name, Seed: seed, Traced: traced}
	var heap *heapSampler
	if traced {
		r.tr = newTracer()
		r.res.Metrics = newMetricSet(perLayer)
		heap = startHeapSampler()
	} else {
		r.res.Metrics = newMetricSet(endToEnd)
	}
	err = r.execute(seed)
	if r.e != nil {
		r.e.close()
	}
	if heap != nil {
		set(r.res.Metrics, "process.peak_heap_mb", heap.peakMB())
	}
	if err != nil {
		return nil, err
	}
	if traced {
		spans := r.tr.all()
		r.res.SelfTime = selfTimes(spans)
		set(r.res.Metrics, "trace.spans", float64(len(spans)))
		if err := r.tr.writeFile(filepath.Join(outDir, "trace-"+sp.Name+".json")); err != nil {
			return nil, err
		}
	}
	r.res.Correct = len(r.res.Problems) == 0 && r.res.Failed == 0
	return &r.res, nil
}

func (r *run) execute(seed uint64) error {
	if err := r.setup(seed); err != nil {
		return err
	}
	sp := r.sp
	votes := genVotes(seed, sp.Pool, sp.totalVotes(), numOptions, numVC)
	warm := votes[:sp.Warmup]
	timed := votes[sp.Warmup : sp.Warmup+sp.timedVotes()]
	drill := votes[sp.Warmup+sp.timedVotes():]

	// Warm-up: connections dialled, caches and lazy state touched, the
	// journal's first segment open — none of it a per-vote cost.
	r.record(warm, runClosed(r.ctx, len(warm), closedClients, r.e.sender(warm, nil)))

	r.window(timed)
	if sp.Drill > 0 {
		if err := r.restartDrill(drill); err != nil {
			return err
		}
	}
	sets, err := r.closePolls()
	if err != nil {
		return err
	}
	r.verifySets(sets)
	if sp.FullCrypto {
		if err := r.audit(); err != nil {
			return err
		}
	}
	r.verifyNodes()
	if r.tr != nil {
		return r.probes()
	}
	return nil
}

// probes fills the unit-cost metrics of the sig, wire and journal layers.
func (r *run) probes() error {
	m := r.res.Metrics
	sc := probeSig(r.sp.ProbeFor)
	set(m, "sig.sign_us", sc.SignUs)
	set(m, "sig.verify_us", sc.VerifyUs)
	set(m, "sig.verify_many_us_per_item", sc.VerifyManyUsPerItem)
	wc := probeWire(r.sp.ProbeFor)
	set(m, "wire.encode_votep_ns", wc.EncodeNs)
	set(m, "wire.decode_votep_ns", wc.DecodeNs)
	set(m, "wire.decode_votep_allocs", wc.DecodeAllocs)
	set(m, "wire.split_batch_ns_per_frame", wc.SplitNsPerFrame)
	jc, err := probeJournal(r.dir, r.sp)
	if err != nil {
		return err
	}
	set(m, "journal.append_us_p50", jc.AppendUsP50)
	set(m, "journal.appends_per_s", jc.AppendsPerS)
	set(m, "journal.replay_records_per_s", jc.ReplayRecordsPerS)
	return nil
}

// setup deploys the election SetupRepeats times — each from the seed to
// accepting votes, each torn down but the last — and reports the median.
// The traced run sets up once, with a span per layer.
func (r *run) setup(seed uint64) error {
	repeats := r.sp.SetupRepeats
	if r.tr != nil {
		repeats = 1
	}
	var totals []float64
	var st setupTimes
	var begin time.Time
	for i := 0; i < repeats; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("setup-%d", i))
		if r.e != nil { // tear the previous deployment down; only the last is voted on
			r.e.close()
			if err := os.RemoveAll(r.e.dir); err != nil {
				return err
			}
		}
		begin = time.Now()
		var err error
		if r.e, st, err = setupElection(r.sp, seed, dir, r.tr); err != nil {
			return err
		}
		totals = append(totals, st.Total.Seconds())
	}
	if r.tr == nil {
		set(r.res.Metrics, "setup_s", median(totals))
		return nil
	}
	at := begin
	for _, part := range []struct {
		name string
		d    time.Duration
	}{{"ea.setup", st.EA}, {"store.build", st.StoreBuild}, {"core.new_cluster", st.Cluster}} {
		r.tr.add(part.name, "setup", "setup", at, at.Add(part.d))
		at = at.Add(part.d)
	}
	r.tr.add("setup", "setup", "", begin, begin.Add(st.Total))
	set(r.res.Metrics, "ea.setup_s", st.EA.Seconds())
	set(r.res.Metrics, "ea.ballots_per_s", float64(r.sp.Pool)/st.EA.Seconds())
	set(r.res.Metrics, "store.build_s", st.StoreBuild.Seconds())
	return nil
}

// window runs the timed votes — the open-loop ladder, then the closed-loop
// burst where the workload has one — and derives the voter-facing metrics
// (plain) or the per-vote layer metrics (traced).
func (r *run) window(timed []vote) {
	sp := r.sp
	ladder, burst := timed[:len(timed)-sp.Burst], timed[len(timed)-sp.Burst:]
	send := r.e.sender(timed, nil)
	spansOn := sp.spanMask()
	if r.tr != nil {
		inner := send
		send = func(ctx context.Context, i int) bool {
			r.tr.on.Store(spansOn[i])
			return inner(ctx, i)
		}
	}
	before, vcBefore := takeProcSnapshot(), r.e.vcTotals()
	framesBefore, bytesBefore := r.e.cl.Net.Stats()

	due := schedule(sp.Ladder)
	paced := runPaced(r.ctx, due, maxInFlight, send)
	sat := runClosed(r.ctx, len(burst), closedClients, func(ctx context.Context, i int) bool {
		return send(ctx, len(ladder)+i)
	})
	if r.tr != nil {
		r.tr.on.Store(false)
	}
	after, vcAfter := takeProcSnapshot(), r.e.vcTotals()
	framesAfter, bytesAfter := r.e.cl.Net.Stats()
	r.record(ladder, paced)
	r.record(burst, sat)

	if r.tr == nil {
		// The gated latencies are those of the ladder's lowest plateau. The
		// higher plateaus and the burst sit where a quarter less CPU — which a
		// shared 2-core machine takes and returns by the minute — turns
		// queueing into backlog; they are reported per layer, not gated.
		low := paced.okLatencies(0, sp.Ladder[0].Count).sorted()
		ok := len(ladder) - paced.failed()
		r.notef("ladder: %d receipts in %.2f s; gated latency over the %d votes at %.0f/s",
			ok, paced.Wall.Seconds(), len(low), sp.Ladder[0].Rate)
		set(r.res.Metrics, "votes_per_s", float64(ok)/paced.Wall.Seconds())
		set(r.res.Metrics, "vote_p50_ms", low.percentile(50))
		set(r.res.Metrics, "vote_p95_ms", low.percentile(95))
		return
	}

	m := r.res.Metrics
	var on, off samples
	for i := range timed {
		lr, k := paced, i
		if i >= len(ladder) {
			lr, k = sat, i-len(ladder)
		}
		if !lr.OK[k] {
			continue
		}
		if spansOn[i] {
			on = append(on, lr.LatencyMs[k])
		} else {
			off = append(off, lr.LatencyMs[k])
		}
	}
	votes := float64(len(on) + len(off))
	if len(on) > 0 && len(off) > 0 {
		// In a closed loop throughput is clients ÷ mean latency, so this is
		// 1 − traced ÷ plain votes/s; it reads the same way in an open loop.
		set(m, "trace.overhead_frac", 1-off.mean()/on.mean())
		gets := r.e.storeGetUs.sorted()
		set(m, "store.gets_per_vote", float64(r.e.storeGets.Load())/float64(len(on)))
		set(m, "store.get_us_p50", gets.percentile(50))
		set(m, "store.get_us_p99", gets.percentile(99))
		handler := r.e.handlerMs.sorted().percentile(50)
		set(m, "httpapi.handler_ms_p50", handler)
		set(m, "httpapi.overhead_us_p50", (on.sorted().percentile(50)-handler)*1e3)
	}
	var cache store.CacheStats
	for _, c := range r.e.caches {
		s := c.Stats()
		cache.Hits += s.Hits
		cache.Misses += s.Misses
		cache.Shared += s.Shared
		cache.Evictions += s.Evictions
	}
	set(m, "store.hit_rate", cache.HitRate())
	if cache.Misses > 0 {
		set(m, "store.shared_frac", float64(cache.Shared)/float64(cache.Misses))
	}
	set(m, "store.evictions", float64(cache.Evictions))

	// The VC's two averages are cumulative since boot (warm-up included);
	// its counters are deltas over the window.
	set(m, "vc.endorse_ms_avg", float64(vcAfter.AvgEndorse)/1e6)
	set(m, "vc.vote_ms_avg", float64(vcAfter.AvgVote)/1e6)
	set(m, "vc.bad_messages", float64(vcAfter.BadMessages-vcBefore.BadMessages))
	set(m, "vc.send_errors", float64(vcAfter.SendErrors-vcBefore.SendErrors))
	set(m, "transport.frames_per_vote", float64(framesAfter-framesBefore)/votes)
	set(m, "transport.bytes_per_vote", float64(bytesAfter-bytesBefore)/votes)
	set(m, "journal.records_per_vote", float64(vcAfter.JournalRecords-vcBefore.JournalRecords)/votes)
	set(m, "journal.disk_bytes_per_vote", float64(r.e.journalDiskBytes())/float64(len(r.receipted)))

	d := before.until(after)
	set(m, "process.cpu_ms_per_vote", float64(d.CPU)/1e6/votes)
	set(m, "process.cpu_util", d.CPU.Seconds()/(d.Wall.Seconds()*float64(runtime.NumCPU())))
	set(m, "process.allocs_per_vote", float64(d.Mallocs)/votes)
	set(m, "process.alloc_kb_per_vote", float64(d.AllocB)/1024/votes)
	set(m, "process.gc_pause_ms", float64(d.GCPause)/1e6)

	var plateaus []plateauStats
	flagged, from := 0, 0
	for _, p := range sp.Ladder {
		st := summarisePlateau(paced, due, from, from+p.Count, p.Rate)
		plateaus = append(plateaus, st)
		from += p.Count
		set(m, "loadgen.max_start_lag_ms", max(m["loadgen.max_start_lag_ms"].Value, st.MaxLagMs))
		if st.LagDominant {
			flagged++
			r.notef("plateau %.0f/s: p%.0f start lag %.2f ms (max %.2f) exceeds a tenth of the p%.0f latency %.2f ms: that tail is the generator's",
				p.Rate, st.TailPct, st.TailLagMs, st.MaxLagMs, st.TailPct, st.Tail)
		}
		if len(sp.Ladder) > 1 { // collect-paced; a single-rate workload has no r-names
			suffix := fmt.Sprintf("_r%.0f", st.Rate)
			set(m, "loadgen.achieved_per_s"+suffix, st.Achieved)
			set(m, "loadgen.vote_p50_ms"+suffix, st.P50)
			set(m, "loadgen.vote_tail_ms"+suffix, st.Tail)
		}
	}
	set(m, "loadgen.vote_tail_ms", plateaus[0].Tail)
	set(m, "loadgen.lag_flagged", float64(flagged))
	set(m, "loadgen.max_rate_ok", maxRateOK(plateaus))
	if okSat := sat.okLatencies(0, len(burst)); len(okSat) > 0 {
		sorted := okSat.sorted()
		set(m, "loadgen.sat_votes_per_s", float64(len(okSat))/sat.Wall.Seconds())
		set(m, "loadgen.sat_p50_ms", sorted.percentile(50))
		set(m, "loadgen.sat_tail_ms", sorted.percentile(tailPercentile(len(okSat))))
	}
}

// restartDrill kills VC node 1, keeps voting on the other three, brings it
// back from its journal and votes on all four again. The recovered node must
// hold exactly the state it had when it stopped.
func (r *run) restartDrill(drill []vote) error {
	const victim = 1
	root := "drill"
	begin := time.Now()
	// The stopped incarnation's memory is the reference: every ballot it had
	// bound to a code must come back bound to that code, in that status.
	old := r.e.cl.VC(victim)
	r.e.cl.StopVC(victim)
	alive := []int{0, 2, 3}
	down, up := drill[:r.sp.Drill], drill[r.sp.Drill:]
	r.record(down, runClosed(r.ctx, len(down), closedClients, r.e.sender(down, alive)))

	t0 := time.Now()
	if err := r.e.cl.RestartVC(victim); err != nil {
		return fmt.Errorf("restart vc %d: %w", victim, err)
	}
	recovered := time.Now()
	r.tr.add("vc.recover", root, root, t0, recovered)
	r.e.bindHandler(victim)
	r.verifyRecovered(old, r.e.cl.VC(victim))
	r.record(up, runClosed(r.ctx, len(up), closedClients, r.e.sender(up, nil)))
	r.tr.add(root, root, "", begin, time.Now())
	if r.tr != nil {
		set(r.res.Metrics, "journal.recover_ms", float64(recovered.Sub(t0))/1e6)
	}
	return nil
}

// verifyRecovered compares a restarted node with its stopped incarnation.
// The comparison is per ballot (status and bound code) and not by
// vc.Node.StateHash: under the strict policy an ENDORSE that arrives after
// the ballot's VOTE_P is journaled without being installed in memory, so the
// replayed state holds an endorsement record the stopped one lacks and the
// hashes differ although nothing a voter or peer was told is lost. That the
// hashes differ is reported as a note.
func (r *run) verifyRecovered(old, recovered *vc.Node) {
	lost := 0
	for serial := uint64(1); serial <= uint64(r.sp.Pool); serial++ { //nolint:gosec // positive
		wantStatus, wantCode := old.BallotStatus(serial)
		status, code := recovered.BallotStatus(serial)
		if status != wantStatus || !bytes.Equal(code, wantCode) {
			lost++
		}
	}
	if lost > 0 {
		r.problemf("vc %d came back from its journal with %d ballots in a different state", old.Index(), lost)
	}
	if old.StateHash() != recovered.StateHash() {
		r.notef("vc %d: StateHash after restart differs from the stopped incarnation's (ballot statuses and codes all equal)", old.Index())
	}
}

// closePolls ends the election: vote-set consensus on every node, and for a
// full-crypto election the push to the BB, the trustees' posts and the
// published result. The plain run calls the cluster's phase drivers as
// shipped and times polls close → outcome; the traced run drives the same
// phases through the layers' own functions, a span around each.
func (r *run) closePolls() (map[int][]vc.VotedBallot, error) {
	cl := r.e.cl
	ctx, cancel := context.WithTimeout(r.ctx, 2*time.Minute)
	defer cancel()
	if r.tr == nil {
		begin := time.Now()
		sets, err := cl.RunVoteSetConsensus(ctx, nil)
		if err != nil {
			return nil, err
		}
		if len(sets) != numVC {
			return nil, fmt.Errorf("consensus finished on %d of %d nodes", len(sets), numVC)
		}
		if r.sp.FullCrypto {
			if err := cl.PushToBB(sets); err != nil {
				return nil, err
			}
			if err := cl.RunTrustees(); err != nil {
				return nil, err
			}
			if _, err := cl.Reader.Result(); err != nil {
				return nil, fmt.Errorf("majority read of the result: %w", err)
			}
		}
		set(r.res.Metrics, "close_to_outcome_s", time.Since(begin).Seconds())
		return sets, nil
	}

	const root = "close"
	m := r.res.Metrics
	begin := time.Now()
	framesBefore, bytesBefore := cl.Net.Stats()
	cl.ClosePolls()
	byNode := make([][]vc.VotedBallot, numVC)
	took := make([]float64, numVC)
	err := parallelDo(numVC, func(i int) (err error) {
		t0 := time.Now()
		byNode[i], err = cl.VC(i).VoteSetConsensus(ctx)
		r.tr.add("vc.consensus", root, root, t0, time.Now())
		took[i] = time.Since(t0).Seconds()
		if err != nil {
			return fmt.Errorf("vc %d consensus: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sets := make(map[int][]vc.VotedBallot, numVC)
	for i, set := range byNode {
		sets[i] = set
	}
	framesAfter, bytesAfter := cl.Net.Stats()
	sortedTook := samples(took).sorted()
	set(m, "consensus.phase_s", time.Since(begin).Seconds())
	set(m, "consensus.node_max_s", sortedTook[numVC-1])
	set(m, "consensus.node_spread_s", sortedTook[numVC-1]-sortedTook[0])
	set(m, "consensus.frames", float64(framesAfter-framesBefore))
	if n := len(sets[0]); n > 0 {
		set(m, "consensus.bytes_per_ballot", float64(bytesAfter-bytesBefore)/float64(n))
	}
	if r.sp.FullCrypto {
		if err := r.publishTraced(ctx, sets); err != nil {
			return nil, err
		}
	}
	r.tr.add(root, root, "", begin, time.Now())
	return sets, nil
}

// parallelDo runs fn(0..n-1) concurrently and returns their errors joined.
func parallelDo(n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// publishTraced is PushToBB + RunTrustees through the BB and trustee layers'
// functions, in the order the cluster's own drivers call them.
func (r *run) publishTraced(ctx context.Context, sets map[int][]vc.VotedBallot) error {
	const root = "close"
	cl, tr, m := r.e.cl, r.tr, r.res.Metrics
	for i := 0; i < numVC; i++ {
		node := cl.VC(i)
		var sg []byte
		_ = tr.phase("vc.sign_vote_set", root, root, func() error { sg = node.SignVoteSet(sets[i]); return nil })
		for b, bnode := range cl.BBs {
			if err := tr.phase("bb.submit_vote_set", root, root, func() error {
				return bnode.SubmitVoteSet(i, sets[i], sg)
			}); err != nil {
				return fmt.Errorf("vc %d pushing its set to bb %d: %w", i, b, err)
			}
			if err := tr.phase("bb.submit_msk_share", root, root, func() error {
				return bnode.SubmitMskShare(node.MskShare())
			}); err != nil {
				return fmt.Errorf("vc %d pushing its key share to bb %d: %w", i, b, err)
			}
		}
	}
	for b, bnode := range cl.BBs {
		if err := tr.phase("bb.cast", root, root, func() error { _, err := bnode.Cast(); return err }); err != nil {
			return fmt.Errorf("bb %d did not publish cast data: %w", b, err)
		}
	}

	publishStart := time.Now()
	err := parallelDo(len(cl.Trustees), func(t int) error {
		var post *bb.TrusteePost
		if err := tr.phase("trustee.compute", root, root, func() (err error) {
			post, err = cl.Trustees[t].ComputePost(cl.Reader)
			return err
		}); err != nil {
			return fmt.Errorf("trustee %d: %w", t, err)
		}
		for b, bnode := range cl.BBs {
			if err := tr.phase("bb.submit_post", root, root, func() error {
				return bnode.SubmitTrusteePost(post)
			}); err != nil {
				return fmt.Errorf("trustee %d posting to bb %d: %w", t, b, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for b, bnode := range cl.BBs {
		if err := tr.phase("bb.wait_result", root, root, func() error { _, err := bnode.WaitResult(ctx); return err }); err != nil {
			return fmt.Errorf("bb %d did not publish a result: %w", b, err)
		}
	}
	set(m, "bb.publish_s", time.Since(publishStart).Seconds())
	if err := tr.phase("bb.read_result", root, root, func() error { _, err := cl.Reader.Result(); return err }); err != nil {
		return fmt.Errorf("majority read of the result: %w", err)
	}

	spans := tr.all()
	set(m, "bb.push_s", unionSeconds(spans, "bb.submit_vote_set", "bb.submit_msk_share"))
	set(m, "bb.cast_s", unionSeconds(spans, "bb.cast"))
	set(m, "bb.post_submit_s", unionSeconds(spans, "bb.submit_post"))
	set(m, "bb.result_wait_s", unionSeconds(spans, "bb.wait_result"))
	var sum, longest float64
	for _, s := range spansNamed(spans, "trustee.compute") {
		d := float64(s.End-s.Start) / 1e9
		sum += d
		longest = max(longest, d)
	}
	set(m, "trustee.compute_s_max", longest)
	set(m, "trustee.compute_s_sum", sum)
	var combine time.Duration
	var attempts, fallbacks, records int64
	for _, bnode := range cl.BBs {
		s := bnode.Metrics()
		combine = max(combine, s.CombineTime)
		attempts += s.CombineAttempts
		fallbacks += s.BatchFallbacks
		records += s.JournalRecords
	}
	set(m, "bb.combine_s", combine.Seconds())
	set(m, "bb.combine_attempts", float64(attempts))
	set(m, "bb.batch_fallbacks", float64(fallbacks))
	set(m, "bb.journal_records", float64(records))
	return nil
}

// audit runs the public audit over the BB majority with delegated packages
// from voters and abstainers, and checks the tally against the votes cast.
func (r *run) audit() error {
	pkgs, err := r.e.auditPackages(r.receipted, r.sp.AuditVoted, r.sp.AuditAbstained)
	if err != nil {
		return err
	}
	begin := time.Now()
	report, err := auditor.Audit(r.e.cl.Reader, pkgs)
	took := time.Since(begin)
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	r.tr.add("auditor.audit", "audit", "", begin, begin.Add(took))
	if !report.OK() {
		r.problemf("audit failed: %v", report.Failures)
	}
	if r.tr != nil {
		set(r.res.Metrics, "auditor.audit_s", took.Seconds())
		set(r.res.Metrics, "auditor.ballots_per_s", float64(report.BallotsChecked)/took.Seconds())
		set(r.res.Metrics, "auditor.packages_checked", float64(report.DelegatedChecks))
	}
	result, err := r.e.cl.Reader.Result()
	if err != nil {
		return fmt.Errorf("reading the result: %w", err)
	}
	want := make([]int64, numOptions)
	for _, v := range r.receipted {
		want[v.Option]++
	}
	for i := range want {
		if i >= len(result.Counts) || result.Counts[i] != want[i] {
			r.problemf("tally %v differs from the votes cast %v", result.Counts, want)
			break
		}
	}
	return nil
}

// verifySets checks the agreed vote sets: identical on every node, holding
// every receipted (serial, code), and nothing that was not cast.
func (r *run) verifySets(sets map[int][]vc.VotedBallot) {
	id := r.e.data.Manifest.ElectionID
	ref := vc.CanonicalVoteSetHash(id, sets[0])
	for i := 1; i < numVC; i++ {
		if vc.CanonicalVoteSetHash(id, sets[i]) != ref {
			r.problemf("vc %d agreed on a different vote set than vc 0", i)
		}
	}
	agreed := make(map[uint64][]byte, len(sets[0]))
	for _, vb := range sets[0] {
		agreed[vb.Serial] = vb.Code
	}
	missing := 0
	for _, v := range r.receipted {
		code := r.e.data.Ballots[v.Serial-1].Parts[v.Part].Lines[v.Option].VoteCode
		if !bytes.Equal(agreed[v.Serial], code) {
			missing++
		}
	}
	if missing > 0 {
		r.problemf("%d receipted votes are not in the agreed set", missing)
	}
	// A vote whose receipt never reached the voter may still be in the set;
	// anything beyond the votes sent may not.
	if len(agreed) > r.res.Attempted || (r.res.Failed == 0 && len(agreed) != len(r.receipted)) {
		r.problemf("agreed set has %d entries for %d receipted votes", len(agreed), len(r.receipted))
	}
}

// verifyNodes checks the invariants held by the nodes themselves.
func (r *run) verifyNodes() {
	if err := vc.CertAgreement(r.e.cl.VCs, r.sp.Pool); err != nil {
		r.problemf("%v", err)
	}
	totals := r.e.vcTotals()
	if totals.JournalErrors != 0 {
		r.problemf("%d journal errors", totals.JournalErrors)
	}
	if totals.StrictRefusals != 0 {
		r.problemf("%d acks refused under the strict journal policy", totals.StrictRefusals)
	}
	if r.tr != nil {
		set(r.res.Metrics, "journal.errors", float64(totals.JournalErrors))
		set(r.res.Metrics, "journal.snapshots", float64(totals.Snapshots))
		set(r.res.Metrics, "vc.strict_refusals", float64(totals.StrictRefusals))
	}
}

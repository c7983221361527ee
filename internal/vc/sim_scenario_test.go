package vc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"ddemos/internal/ballot"
	"ddemos/internal/clock"
	"ddemos/internal/ea"
	"ddemos/internal/journal"
	"ddemos/internal/sim"
	"ddemos/internal/transport"
)

// The vc test cluster is a scenario fault surface, with in-place restart.
var (
	_ sim.Surface   = (*cluster)(nil)
	_ sim.Restarter = (*cluster)(nil)
)

// checkCertAgreement probes the at-most-one-UCERT invariant while a
// scenario runs (vc.CertAgreement over this cluster's nodes). The node
// slice is snapshotted under the lock: restarts swap incarnations
// mid-probe, and a stopped incarnation's frozen state is still a valid
// witness for agreement.
func (c *cluster) checkCertAgreement(numBallots int) error {
	c.mu.Lock()
	nodes := append([]*Node(nil), c.nodes...)
	c.mu.Unlock()
	return CertAgreement(nodes, numBallots)
}

// scenarioLink derives the sweep's link profile: lossy LAN by default, the
// paper's WAN when the scenario says so — drops and duplicates always on,
// since the invariants under test must survive them.
func scenarioLink(scen sim.Scenario) transport.LinkProfile {
	lp := transport.LANProfile
	lp.Jitter = time.Millisecond // wider than LAN default: real reordering
	if scen.WAN {
		lp = transport.WANProfile
	}
	lp.DropRate, lp.DupRate = 0.05, 0.10
	return lp
}

// sweepStats aggregates outcomes across the whole sweep so per-scenario
// starvation (legal) cannot mask a sweep-wide liveness collapse (a bug).
type sweepStats struct {
	mu        sync.Mutex
	scenarios int
	receipts  int
	starved   int
}

// equivocatorSeats maps a scenario's Byzantine seats to Equivocator — the
// exact attack UCERTs exist to defeat.
func equivocatorSeats(scen sim.Scenario) map[int]Byzantine {
	byz := make(map[int]Byzantine, len(scen.Byzantine))
	for _, b := range scen.Byzantine {
		byz[b] = Equivocator
	}
	return byz
}

// sweepStack picks the endpoint stack for a sweep seed: even seeds run the
// batched pipeline, odd seeds the raw one.
func sweepStack(seed uint64) func(int, *ea.ElectionData, transport.Endpoint, clock.Timers) transport.Endpoint {
	if seed%2 == 0 {
		return batchedStack
	}
	return rawStack
}

// castOutcome is one conflicting-code submission and its result.
type castOutcome struct {
	serial  uint64
	part    ballot.PartID
	option  int
	at      int
	code    []byte
	receipt []byte
	err     error
}

// driveConflictingSubmissions races two conflicting vote codes for every
// ballot, submitted at rng-drawn nodes and virtual offsets spread across
// the fault-schedule window, and collects every outcome. salt decouples the
// submission schedule streams of independent sweeps on the same seed.
func driveConflictingSubmissions(t *testing.T, c *cluster, scen sim.Scenario, seed, salt uint64, numBallots, numVC int) []castOutcome {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, salt)) //nolint:gosec // test schedule only
	var subs []castOutcome
	for b := 0; b < numBallots; b++ {
		serial := uint64(b + 1)
		subs = append(subs,
			castOutcome{serial: serial, part: ballot.PartA, option: 0, at: rng.IntN(numVC)},
			castOutcome{serial: serial, part: ballot.PartB, option: 1, at: rng.IntN(numVC)})
	}
	results := make(chan castOutcome, len(subs))
	var wg sync.WaitGroup
	for _, sub := range subs {
		sub := sub
		offset := time.Duration(rng.Int64N(int64(scen.Duration)))
		code, err := c.data.Ballots[sub.serial-1].CodeFor(sub.part, sub.option)
		if err != nil {
			t.Fatal(err)
		}
		sub.code = code
		wg.Add(1)
		c.drv.AfterFunc(offset, func() {
			go func() {
				defer wg.Done()
				ctx, cancel := c.drv.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				sub.receipt, sub.err = c.node(sub.at).SubmitVote(ctx, sub.serial, sub.code)
				results <- sub
			}()
		})
	}
	wg.Wait()
	close(results)
	var out []castOutcome
	for o := range results {
		out = append(out, o)
	}
	return out
}

// tallyOutcomes asserts the sweep invariants — at most one receipt per
// ballot, every receipt the true line receipt for its code, certification
// agreement in the final state, no probe violations — updates the sweep
// stats, and returns each ballot's winning outcome.
func tallyOutcomes(t *testing.T, c *cluster, seed uint64, outcomes []castOutcome,
	violations *sim.Violations, stats *sweepStats, numBallots int) map[uint64]castOutcome {
	t.Helper()
	receipts := make(map[uint64]int)
	winners := make(map[uint64]castOutcome)
	for _, o := range outcomes {
		if o.err != nil {
			stats.mu.Lock()
			stats.starved++
			stats.mu.Unlock()
			continue
		}
		receipts[o.serial]++
		want := c.expectedReceipt(o.serial, o.part, o.option)
		if !bytes.Equal(o.receipt, want) {
			t.Errorf("seed %d: ballot %d: reconstructed receipt is corrupt", seed, o.serial)
		}
		winners[o.serial] = o
		stats.mu.Lock()
		stats.receipts++
		stats.mu.Unlock()
	}
	for serial, got := range receipts {
		if got > 1 {
			t.Errorf("seed %d: ballot %d issued %d receipts for conflicting codes", seed, serial, got)
		}
	}
	if err := c.checkCertAgreement(numBallots); err != nil {
		t.Errorf("seed %d: final state: %v", seed, err)
	}
	if !violations.Empty() {
		t.Errorf("seed %d: probe violations: %v", seed, violations.List())
	}
	stats.mu.Lock()
	stats.scenarios++
	stats.mu.Unlock()
	return winners
}

// runThresholdScenario runs one seeded fault schedule at the paper's
// thresholds: fv = ⌈Nv/3⌉−1 Equivocator nodes plus a crash/partition mix
// over the schedule window, while two conflicting vote codes race for every
// ballot. Safety must hold unconditionally; receipts may starve.
func runThresholdScenario(t *testing.T, seed uint64, stats *sweepStats) {
	const (
		numVC      = 4
		numBallots = 3
	)
	scen := sim.RandomScenario(seed, sim.ScenarioConfig{
		NumNodes:  numVC,
		Byzantine: 1, // fv = ⌈4/3⌉−1
		Duration:  10 * time.Millisecond,
	})
	c := newSimClusterStack(t, seed, equivocatorSeats(scen), numBallots, numVC, scenarioLink(scen), sweepStack(seed))
	scen.Install(c.drv, c)
	violations := scen.InstallProbes(c.drv, []sim.Probe{{
		Name:  "at-most-one-ucert",
		Every: 2 * time.Millisecond,
		Check: func() error { return c.checkCertAgreement(numBallots) },
	}})
	outcomes := driveConflictingSubmissions(t, c, scen, seed, 0x70FE, numBallots, numVC)
	tallyOutcomes(t, c, seed, outcomes, violations, stats, numBallots)
}

// TestScenarioSweepThresholdInvariants sweeps ≥100 seeded random fault
// schedules (crash windows, partitions, WAN profiles, drop/dup links, one
// Equivocator) in virtual time. Each seed is fully reproducible: rerun a
// failure with -run 'TestScenarioSweepThresholdInvariants/seed=N'. The CI
// scenario-matrix job adds one rotating seed via DDEMOS_SCENARIO_SEED.
func TestScenarioSweepThresholdInvariants(t *testing.T) {
	numSeeds := 100
	if testing.Short() {
		numSeeds = 20
	}
	seeds := make([]uint64, 0, numSeeds+1)
	for s := uint64(1); s <= uint64(numSeeds); s++ {
		seeds = append(seeds, s)
	}
	if v := os.Getenv("DDEMOS_SCENARIO_SEED"); v != "" {
		extra, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("DDEMOS_SCENARIO_SEED = %q: %v", v, err)
		}
		t.Logf("rotating scenario seed from environment: %d", extra)
		seeds = append(seeds, extra)
	}
	stats := &sweepStats{}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runThresholdScenario(t, seed, stats)
		})
	}
	t.Logf("sweep: %d scenarios, %d receipts issued, %d submissions starved",
		stats.scenarios, stats.receipts, stats.starved)
	// Starvation per scenario is legal (drops eat endorsements), but a
	// sweep where almost nothing completes means liveness collapsed.
	if stats.receipts < stats.scenarios/2 {
		t.Fatalf("only %d receipts across %d scenarios: liveness collapsed", stats.receipts, stats.scenarios)
	}
}

// sweepJournalOptions rotates the journal's lane count across sweep seeds
// — 1, 2, 4 — so every restart sweep doubles as a journal-recovery sweep.
func sweepJournalOptions(seed uint64) journal.Options {
	pools := []int{1, 2, 4}
	return journal.Options{Pool: pools[seed%3]}
}

// journalDirs allocates per-node journal directories.
func journalDirs(t *testing.T, numVC int) []string {
	t.Helper()
	dirs := make([]string, numVC)
	for i := range dirs {
		dirs[i] = filepath.Join(t.TempDir(), fmt.Sprintf("vc-%d", i))
	}
	return dirs
}

// restartedNodes extracts the set of nodes a schedule restarts.
func restartedNodes(scen sim.Scenario) map[int]bool {
	restarted := map[int]bool{}
	for _, f := range scen.Faults {
		if f.Kind == sim.FaultRestart {
			restarted[f.A] = true
		}
	}
	return restarted
}

// driveRestartSweep is the shared body of the collection-phase restart
// sweeps: build a journaled cluster for the scenario, race conflicting
// submissions across the fault schedule with the at-most-one-UCERT probe
// running, tally the safety invariants, and replay every winning code at
// every restarted node — the answer must be byte-identical.
func driveRestartSweep(t *testing.T, seed, salt uint64, stats *sweepStats,
	scen sim.Scenario, flip map[int]Byzantine, numBallots, numVC int) {
	t.Helper()
	restarted := restartedNodes(scen)
	c := newSimClusterJ(t, seed, equivocatorSeats(scen), numBallots, numVC,
		scenarioLink(scen), sweepStack(seed), journalDirs(t, numVC), sweepJournalOptions(seed))
	c.flip = flip
	scen.Install(c.drv, c)
	violations := scen.InstallProbes(c.drv, []sim.Probe{{
		Name:  "at-most-one-ucert",
		Every: 2 * time.Millisecond,
		Check: func() error { return c.checkCertAgreement(numBallots) },
	}})
	outcomes := driveConflictingSubmissions(t, c, scen, seed, salt, numBallots, numVC)

	// A submission burst can resolve before the last scheduled fault fires:
	// wait (wall-clock poll, virtual progress) until the whole schedule has
	// executed, so the replay below provably targets *restarted* nodes.
	deadline := time.Now().Add(30 * time.Second)
	for len(c.drv.Trace()) < len(scen.Faults) {
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: fault schedule never completed", seed)
		}
		time.Sleep(time.Millisecond)
	}

	winners := tallyOutcomes(t, c, seed, outcomes, violations, stats, numBallots)

	// Receipt stability across restart: replay every winning code at a node
	// that was killed and recovered — the answer must be byte-identical.
	for serial, o := range winners {
		for at := range restarted {
			ctx, cancel := c.drv.WithTimeout(context.Background(), 10*time.Second)
			r, err := c.node(at).SubmitVote(ctx, serial, o.code)
			cancel()
			if err != nil {
				// A post-schedule resubmission can still starve only if the
				// Byzantine seat withholds; that is a liveness event, not a
				// safety violation.
				stats.mu.Lock()
				stats.starved++
				stats.mu.Unlock()
				continue
			}
			if !bytes.Equal(r, o.receipt) {
				t.Errorf("seed %d: ballot %d: restarted node %d returned a different receipt", seed, serial, at)
			}
		}
	}
}

// runRestartScenario runs one seeded crash-restart schedule over a
// journaled cluster: every node persists its runtime state, and the
// schedule hard-stops nodes (volatile state lost) and restarts them from
// WAL+snapshot mid-election, alongside partitions and an Equivocator seat.
// Safety (at most one UCERT, correct receipts) must hold across the
// restarts; after the schedule, every receipt issued must be reproducible
// at a node that lived through a restart.
func runRestartScenario(t *testing.T, seed uint64, stats *sweepStats) {
	const (
		numVC      = 4
		numBallots = 3
	)
	scen := sim.RandomScenario(seed, sim.ScenarioConfig{
		NumNodes:          numVC,
		Byzantine:         1,
		Duration:          10 * time.Millisecond,
		MaxCrashWindows:   -1, // restart windows take the crash lever's place
		MaxRestartWindows: 2,
	})
	// Every sweep seed must exercise recovery: if the draw produced no
	// restart window, add a deterministic one.
	if len(restartedNodes(scen)) == 0 {
		node := int(seed % numVC)
		scen.Faults = append(scen.Faults,
			sim.Fault{At: scen.Duration / 4, Kind: sim.FaultStop, A: node},
			sim.Fault{At: scen.Duration * 3 / 4, Kind: sim.FaultRestart, A: node})
	}
	driveRestartSweep(t, seed, 0x4E57, stats, scen, nil, numBallots, numVC)
}

// TestScenarioSweepRestartRecovery sweeps ≥100 seeded crash-restart
// schedules: journaled nodes are hard-stopped mid-election (volatile state
// gone) and relaunched from their WAL/snapshot, under partitions,
// drop/dup links, WAN profiles and one Equivocator. Safety must hold
// unconditionally and recovered nodes must reproduce issued receipts.
// Replay one seed with -run 'TestScenarioSweepRestartRecovery/seed=N'; CI
// adds a rotating seed via DDEMOS_RESTART_SEED.
func TestScenarioSweepRestartRecovery(t *testing.T) {
	numSeeds := 100
	if testing.Short() {
		numSeeds = 20
	}
	seeds := make([]uint64, 0, numSeeds+1)
	for s := uint64(1); s <= uint64(numSeeds); s++ {
		seeds = append(seeds, s)
	}
	if v := os.Getenv("DDEMOS_RESTART_SEED"); v != "" {
		extra, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("DDEMOS_RESTART_SEED = %q: %v", v, err)
		}
		t.Logf("rotating restart seed from environment: %d", extra)
		seeds = append(seeds, extra)
	}
	stats := &sweepStats{}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRestartScenario(t, seed, stats)
		})
	}
	t.Logf("restart sweep: %d scenarios, %d receipts issued, %d submissions starved",
		stats.scenarios, stats.receipts, stats.starved)
	if stats.receipts < stats.scenarios/2 {
		t.Fatalf("only %d receipts across %d scenarios: liveness collapsed", stats.receipts, stats.scenarios)
	}
}

// runMultiRestartScenario is one seed of the multi-node / Byzantine-flip
// restart sweep. Even seeds restart two distinct nodes in disjoint slots of
// one schedule window (at most one node ever down — within the fv bound)
// with an Equivocator seat running throughout; odd seeds run an all-honest
// cluster in which one node crashes honest and restarts as an Equivocator
// (the corruption-on-recovery fault). Both classes must keep the
// at-most-one-UCERT and receipt-validity probes green.
func runMultiRestartScenario(t *testing.T, seed uint64, stats *sweepStats) {
	const (
		numVC      = 4
		numBallots = 3
	)
	var scen sim.Scenario
	var flip map[int]Byzantine
	if seed%2 == 0 {
		scen = sim.RandomScenario(seed, sim.ScenarioConfig{
			NumNodes:           numVC,
			Byzantine:          1,
			Duration:           12 * time.Millisecond,
			MaxCrashWindows:    -1,
			MaxPartitions:      -1, // restarts are the fault under test
			SequentialRestarts: 2,
		})
		if len(restartedNodes(scen)) < 2 {
			t.Fatalf("seed %d: sequential-restart draw produced %d windows", seed, len(restartedNodes(scen)))
		}
	} else {
		scen = sim.RandomScenario(seed, sim.ScenarioConfig{
			NumNodes:        numVC,
			Duration:        10 * time.Millisecond,
			MaxCrashWindows: -1,
			MaxPartitions:   -1,
			ByzantineFlip:   true,
		})
		if len(scen.FlipByzantine) != 1 {
			t.Fatalf("seed %d: flip draw marked %d nodes", seed, len(scen.FlipByzantine))
		}
		flip = map[int]Byzantine{scen.FlipByzantine[0]: Equivocator}
	}
	driveRestartSweep(t, seed, 0xF11B, stats, scen, flip, numBallots, numVC)
}

// TestScenarioSweepMultiRestartByzFlip sweeps ≥100 seeds of the multi-node
// and Byzantine-flip restart classes (see runMultiRestartScenario). Replay
// one seed with -run 'TestScenarioSweepMultiRestartByzFlip/seed=N'; CI adds
// a rotating seed via DDEMOS_MULTIRESTART_SEED.
func TestScenarioSweepMultiRestartByzFlip(t *testing.T) {
	numSeeds := 100
	if testing.Short() {
		numSeeds = 20
	}
	seeds := make([]uint64, 0, numSeeds+1)
	for s := uint64(1); s <= uint64(numSeeds); s++ {
		seeds = append(seeds, s)
	}
	if v := os.Getenv("DDEMOS_MULTIRESTART_SEED"); v != "" {
		extra, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("DDEMOS_MULTIRESTART_SEED = %q: %v", v, err)
		}
		t.Logf("rotating multi-restart seed from environment: %d", extra)
		seeds = append(seeds, extra)
	}
	stats := &sweepStats{}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runMultiRestartScenario(t, seed, stats)
		})
	}
	t.Logf("multi-restart sweep: %d scenarios, %d receipts issued, %d submissions starved",
		stats.scenarios, stats.receipts, stats.starved)
	if stats.receipts < stats.scenarios/2 {
		t.Fatalf("only %d receipts across %d scenarios: liveness collapsed", stats.receipts, stats.scenarios)
	}
}

// certCodes snapshots a node's certified (serial → code) map.
func certCodes(n *Node) map[uint64]string {
	out := make(map[uint64]string)
	for _, e := range n.certifiedEntries() {
		out[e.Serial] = string(e.Code)
	}
	return out
}

// runConsensusRestartScenario hard-stops one node *during vote-set
// consensus* and recovers it mid-protocol. The collection phase completes
// cleanly first (consensus assumes reliable channels, so the link drops
// nothing; the restart itself is the fault), then all nodes run consensus
// while a seed-drawn schedule kills and revives the target. The consensus
// engine rotates with the seed (sweepEngine), so half the schedules kill a
// node mid-RBC/ABA and recovery must work identically: peers complete on
// n−f quorums without the dead node, and the restarted node converges via
// the engine-agnostic ANNOUNCE/VSC-FINAL path. Asserts: the recovered node
// re-announces exactly its journaled certified set (ANNOUNCE replay from
// recovered certs), every node — the recovered one included — returns a
// byte-identical vote set, and recovery stays idempotent after the result
// landed.
func runConsensusRestartScenario(t *testing.T, seed uint64, stats *sweepStats) {
	const (
		numVC      = 4
		numBallots = 3
	)
	rng := rand.New(rand.NewPCG(seed, 0xC025)) //nolint:gosec // test schedule only
	lp := transport.LinkProfile{Latency: 200 * time.Microsecond, Jitter: time.Millisecond, DupRate: 0.10}
	_, engine := sweepEngine(seed)
	c := newSimClusterJE(t, seed, nil, numBallots, numVC, lp, sweepStack(seed),
		journalDirs(t, numVC), sweepJournalOptions(seed), engine)

	// Collection: every ballot voted, no faults active. A submission can
	// still time out virtually when a loaded -race runner starves the
	// goroutines behind the virtual clock's quiescence heuristic; retries
	// are idempotent (same code re-multicasts ENDORSE, a formed receipt is
	// re-served), so starvation here is transient, not a protocol event.
	for b := 0; b < numBallots; b++ {
		serial := uint64(b + 1)
		at := rng.IntN(numVC)
		var err error
		for attempt := 0; attempt < 5; attempt++ {
			if _, err = c.simVote(serial, ballot.PartA, b%2, at); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("seed %d: collection vote %d: %v", seed, serial, err)
		}
	}

	// The consensus-phase fault schedule: stop node r early in the
	// consensus window, restart it before the window ends.
	r := rng.IntN(numVC)
	stopAt := 200*time.Microsecond + time.Duration(rng.Int64N(int64(3*time.Millisecond)))
	restartAt := stopAt + 500*time.Microsecond + time.Duration(rng.Int64N(int64(4*time.Millisecond)))
	var certMu sync.Mutex
	var preCerts, postCerts map[uint64]string
	c.drv.AfterFunc(stopAt, func() {
		old := c.node(r)
		c.StopNode(r)
		certMu.Lock()
		preCerts = certCodes(old)
		certMu.Unlock()
	})
	c.drv.AfterFunc(restartAt, func() {
		c.RestartNode(r)
		certMu.Lock()
		postCerts = certCodes(c.node(r))
		certMu.Unlock()
	})

	results := make([][]VotedBallot, numVC)
	errs := make([]error, numVC)
	var wg sync.WaitGroup
	for i := 0; i < numVC; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Virtual deadline: generous headroom is free in wall time and
			// keeps a heavily loaded -race runner from starving a peer.
			ctx, cancel := c.drv.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			results[i], errs[i] = c.node(i).VoteSetConsensus(ctx)
		}(i)
	}
	wg.Wait()

	// Any node whose run was interrupted retries until it returns: the
	// restarted node's attempt dies with the stop (or starves while peers
	// are mid-protocol), and a peer can starve virtually on a heavily
	// loaded runner. Every retry re-announces — for the recovered node,
	// from journaled certs — and peers answer with announce echoes and
	// VSC-FINAL, so retries always converge once a quorum finished.
	for i := 0; i < numVC; i++ {
		if errs[i] == nil {
			continue
		}
		deadline := time.Now().Add(120 * time.Second)
		for {
			ctx, cancel := c.drv.WithTimeout(context.Background(), 5*time.Second)
			set, err := c.node(i).VoteSetConsensus(ctx)
			cancel()
			if err == nil {
				results[i] = set
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: node %d never completed consensus (restart target %d): %v", seed, i, r, err)
			}
			if errors.Is(err, ErrStopped) {
				time.Sleep(2 * time.Millisecond) // restart not yet fired
			}
		}
	}

	// Byte-identical results across every node, the recovered one included.
	want := CanonicalVoteSetHash(c.data.Manifest.ElectionID, results[0])
	for i := 1; i < numVC; i++ {
		if CanonicalVoteSetHash(c.data.Manifest.ElectionID, results[i]) != want {
			t.Fatalf("seed %d: node %d returned a different vote set than node 0", seed, i)
		}
	}
	if len(results[r]) != numBallots {
		t.Errorf("seed %d: agreed set has %d ballots, want %d", seed, len(results[r]), numBallots)
	}

	// ANNOUNCE replay from recovered certs: everything the dead incarnation
	// had certified must come back from the journal, same codes.
	certMu.Lock()
	pre, post := preCerts, postCerts
	certMu.Unlock()
	if len(pre) == 0 {
		t.Errorf("seed %d: stopped node had no certified ballots after clean collection", seed)
	}
	for serial, code := range pre {
		if post[serial] != code {
			t.Errorf("seed %d: recovered node lost or changed cert for ballot %d", seed, serial)
		}
	}

	// Recovery idempotence with the journaled result: a second stop/restart
	// cycle reproduces the state hash and the consensus answer without any
	// network round.
	pre2 := c.node(r).StateHash()
	c.StopNode(r)
	c.RestartNode(r)
	if got := c.node(r).StateHash(); got != pre2 {
		t.Errorf("seed %d: post-consensus recovery is not idempotent", seed)
	}
	ctx, cancel := c.drv.WithTimeout(context.Background(), time.Second)
	again, err := c.node(r).VoteSetConsensus(ctx)
	cancel()
	if err != nil {
		t.Fatalf("seed %d: recovered consensus rerun: %v", seed, err)
	}
	if CanonicalVoteSetHash(c.data.Manifest.ElectionID, again) != want {
		t.Errorf("seed %d: journaled consensus result changed across recovery", seed)
	}

	stats.mu.Lock()
	stats.scenarios++
	stats.receipts += numBallots
	stats.mu.Unlock()
}

// TestScenarioSweepConsensusRestartRecovery sweeps ≥100 seeded
// consensus-phase restart schedules (see runConsensusRestartScenario).
// Replay one seed with -run
// 'TestScenarioSweepConsensusRestartRecovery/seed=N'; CI adds a rotating
// seed via DDEMOS_CONSENSUS_SEED.
func TestScenarioSweepConsensusRestartRecovery(t *testing.T) {
	numSeeds := 100
	if testing.Short() {
		numSeeds = 20
	}
	seeds := make([]uint64, 0, numSeeds+1)
	for s := uint64(1); s <= uint64(numSeeds); s++ {
		seeds = append(seeds, s)
	}
	if v := os.Getenv("DDEMOS_CONSENSUS_SEED"); v != "" {
		extra, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("DDEMOS_CONSENSUS_SEED = %q: %v", v, err)
		}
		t.Logf("rotating consensus-restart seed from environment: %d", extra)
		seeds = append(seeds, extra)
	}
	stats := &sweepStats{}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runConsensusRestartScenario(t, seed, stats)
		})
	}
	t.Logf("consensus-restart sweep: %d scenarios completed", stats.scenarios)
}

// TestScenarioTraceHashReproducible is the acceptance bar for determinism:
// the same seed, run twice against fully independent clusters, executes the
// identical fault schedule — verified by the trace hash — and generation
// itself is a pure function of the seed.
func TestScenarioTraceHashReproducible(t *testing.T) {
	cfg := sim.ScenarioConfig{NumNodes: 4, Byzantine: 1, Duration: 10 * time.Millisecond}
	// Pick the first seed whose schedule is non-trivial (generation is a
	// pure function of the seed, so this choice is itself deterministic).
	seed := uint64(1)
	for ; len(sim.RandomScenario(seed, cfg).Faults) < 4; seed++ {
	}
	a, b := sim.RandomScenario(seed, cfg), sim.RandomScenario(seed, cfg)
	if len(a.Faults) != len(b.Faults) {
		t.Fatal("scenario generation is not deterministic")
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Fatalf("fault %d differs across generations", i)
		}
	}
	run := func(name string) [32]byte {
		var h [32]byte
		t.Run(name, func(t *testing.T) {
			scen := sim.RandomScenario(seed, cfg)
			c := newSimClusterStack(t, seed, nil, 2, 4, scenarioLink(scen), rawStack)
			scen.Install(c.drv, c)
			// Real protocol traffic interleaves with the fault schedule.
			ctx, cancel := c.drv.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, _ = c.nodes[0].SubmitVote(ctx, 1, mustCode(t, c, 1, ballot.PartA, 0))
			// Wait (wall-clock poll, virtual progress) until the whole fault
			// schedule has executed.
			deadline := time.Now().Add(30 * time.Second)
			for len(c.drv.Trace()) < len(scen.Faults) {
				if time.Now().After(deadline) {
					t.Fatal("driver never reached the end of the schedule")
				}
				time.Sleep(time.Millisecond)
			}
			h = c.drv.TraceHash()
		})
		return h
	}
	h1 := run("first")
	h2 := run("second")
	if h1 != h2 {
		t.Fatal("same seed produced different event traces")
	}
}

func mustCode(t *testing.T, c *cluster, serial uint64, part ballot.PartID, option int) []byte {
	t.Helper()
	code, err := c.data.Ballots[serial-1].CodeFor(part, option)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

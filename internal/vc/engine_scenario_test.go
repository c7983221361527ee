package vc

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"ddemos/internal/ballot"
	"ddemos/internal/journal"
	"ddemos/internal/sim"
	"ddemos/internal/transport"
)

// sweepEngine rotates the vote-set-consensus engine across sweep seeds.
// It keys on seed/2 so the rotation is decorrelated from sweepStack's
// seed%2 batched/raw split — over any four consecutive seeds every
// engine×stack combination runs.
func sweepEngine(seed uint64) (string, EngineFactory) {
	if (seed/2)%2 == 0 {
		return "interlocked", InterlockedEngine
	}
	return "acs", ACSEngine
}

// runConsensusAll drives VoteSetConsensus on every non-skipped node with
// the starvation-retry loop the consensus scenarios share: a first attempt
// can starve virtually on a loaded -race runner (or die with a restart),
// and every retry re-announces, so attempts converge once a quorum
// finished. Returns each node's agreed set (nil at skipped indexes).
func runConsensusAll(t *testing.T, c *cluster, seed uint64, skip map[int]bool, numVC int) [][]VotedBallot {
	t.Helper()
	results := make([][]VotedBallot, numVC)
	errs := make([]error, numVC)
	var wg sync.WaitGroup
	for i := 0; i < numVC; i++ {
		if skip[i] {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := c.drv.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			results[i], errs[i] = c.node(i).VoteSetConsensus(ctx)
		}(i)
	}
	wg.Wait()
	for i := 0; i < numVC; i++ {
		if skip[i] || errs[i] == nil {
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
				t.Fatalf("seed %d: node %d never completed consensus: %v", seed, i, err)
			}
			if errors.Is(err, ErrStopped) {
				time.Sleep(2 * time.Millisecond) // restart not yet fired
			}
		}
	}
	return results
}

// runEngineScenario is one seed of the engine-rotation sweep: a seeded
// crash/partition/WAN/Byzantine fault schedule runs over the collection
// phase while conflicting codes race for every ballot (at-most-one-UCERT
// probe live, receipts checked), then — schedule complete, faults healed —
// every honest node runs vote-set consensus on the engine the seed selects.
// The links keep jitter, duplication and the WAN profile but not drops:
// both engines assume the paper's reliable inter-VC channels during the
// consensus phase, and drop-tolerance of the collection phase is the
// threshold sweep's job. Every honest node must return a byte-identical
// vote set that contains every ballot a receipt was issued for.
func runEngineScenario(t *testing.T, seed uint64, stats *sweepStats) {
	const (
		numVC      = 4
		numBallots = 3
	)
	engName, engine := sweepEngine(seed)
	// Rotate the Byzantine seat's behaviour: mostly Equivocator (the
	// collection-phase attack the probes watch), every third seed a
	// ConsensusLiar — the consensus-phase attack, which for the ACS engine
	// means broadcasting an empty candidate set and for the interlocked
	// engine means inverted inputs.
	byzMode := Equivocator
	if seed%3 == 0 {
		byzMode = ConsensusLiar
	}
	scen := sim.RandomScenario(seed, sim.ScenarioConfig{
		NumNodes:  numVC,
		Byzantine: 1,
		Duration:  10 * time.Millisecond,
	})
	byz := make(map[int]Byzantine, len(scen.Byzantine))
	skip := make(map[int]bool, len(scen.Byzantine))
	for _, b := range scen.Byzantine {
		byz[b] = byzMode
		skip[b] = true
	}
	lp := scenarioLink(scen)
	lp.DropRate = 0
	c := newSimClusterJE(t, seed, byz, numBallots, numVC, lp, sweepStack(seed),
		nil, journal.Options{}, engine)
	scen.Install(c.drv, c)
	violations := scen.InstallProbes(c.drv, []sim.Probe{{
		Name:  "at-most-one-ucert",
		Every: 2 * time.Millisecond,
		Check: func() error { return c.checkCertAgreement(numBallots) },
	}})
	outcomes := driveConflictingSubmissions(t, c, scen, seed, 0xE16E, numBallots, numVC)

	// Wait until the whole fault schedule has executed (wall-clock poll,
	// virtual progress): consensus below must start on a healed network.
	deadline := time.Now().Add(30 * time.Second)
	for len(c.drv.Trace()) < len(scen.Faults) {
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: fault schedule never completed", seed)
		}
		time.Sleep(time.Millisecond)
	}

	winners := tallyOutcomes(t, c, seed, outcomes, violations, stats, numBallots)

	// Every other seed, one honest node enters consensus holding other valid
	// certificates than its peers — another signer subset, as a second
	// responder for the same code would have built. Its proposal hashes
	// differently from theirs, so on the ACS engine it must pull their
	// payloads and they must pull its.
	if seed%2 == 1 {
		odd := int(seed) % numVC
		for skip[odd] {
			odd = (odd + 1) % numVC
		}
		c.recertify(odd)
	}

	results := runConsensusAll(t, c, seed, skip, numVC)
	var want [32]byte
	first := -1
	for i := 0; i < numVC; i++ {
		if skip[i] {
			continue
		}
		h := CanonicalVoteSetHash(c.data.Manifest.ElectionID, results[i])
		if first < 0 {
			first, want = i, h
			continue
		}
		if h != want {
			t.Errorf("seed %d (%s): node %d returned a different vote set than node %d",
				seed, engName, i, first)
		}
	}
	// Receipt inclusion: a receipt proves a UCERT existed at the submission
	// node, which announces it, so every honest node inputs/broadcasts it —
	// both engines must land it in the agreed set.
	voted := make(map[uint64]bool, numBallots)
	for _, vb := range results[first] {
		voted[vb.Serial] = true
	}
	for serial := range winners {
		if !voted[serial] {
			t.Errorf("seed %d (%s): ballot %d has a receipt but is missing from the agreed set",
				seed, engName, serial)
		}
	}
}

// recertify swaps node i's certificate for every ballot it holds one for
// with an equally valid one from another signer subset: the first signer
// gives way to one the certificate lacks (or, on a certificate every node
// signed, is dropped).
func (c *cluster) recertify(i int) {
	n := c.node(i)
	for _, e := range n.certifiedEntries() {
		var signers []int
		signed := make(map[int]bool, len(e.Cert.Sigs))
		for k, s := range e.Cert.Sigs {
			signed[int(s.Signer)] = true
			if k > 0 {
				signers = append(signers, int(s.Signer))
			}
		}
		for s := range c.data.VC {
			if !signed[s] {
				signers = append(signers, s)
				break
			}
		}
		fresh := signedEntry(c.data, e.Serial, e.Code, signers...)
		st := n.peekState(e.Serial)
		st.mu.Lock()
		st.cert = &fresh.Cert
		st.mu.Unlock()
	}
}

// TestScenarioSweepConsensusEngines sweeps ≥100 seeded fault schedules with
// the vote-set-consensus engine rotating across seeds (see sweepEngine):
// half the seeds agree via the paper's interlocked per-ballot protocol,
// half via the BKR/ACS engine, under the same crash/partition/WAN/Byzantine
// mixes, probes and receipt checks as the threshold sweep; on every other
// seed one honest node holds other certificates than its peers (recertify),
// which drives the ACS engine's payload pulls. Replay one seed with -run
// 'TestScenarioSweepConsensusEngines/seed=N'; CI adds a rotating seed via
// DDEMOS_ACS_SEED.
func TestScenarioSweepConsensusEngines(t *testing.T) {
	numSeeds := 100
	if testing.Short() {
		numSeeds = 20
	}
	seeds := make([]uint64, 0, numSeeds+1)
	for s := uint64(1); s <= uint64(numSeeds); s++ {
		seeds = append(seeds, s)
	}
	if v := os.Getenv("DDEMOS_ACS_SEED"); v != "" {
		extra, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("DDEMOS_ACS_SEED = %q: %v", v, err)
		}
		t.Logf("rotating engine-sweep seed from environment: %d", extra)
		seeds = append(seeds, extra)
	}
	stats := &sweepStats{}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runEngineScenario(t, seed, stats)
		})
	}
	t.Logf("engine sweep: %d scenarios, %d receipts issued, %d submissions starved",
		stats.scenarios, stats.receipts, stats.starved)
	if stats.receipts < stats.scenarios/2 {
		t.Fatalf("only %d receipts across %d scenarios: liveness collapsed", stats.receipts, stats.scenarios)
	}
}

// TestConsensusEngineDifferential runs one seeded election twice — same
// election data, same sim seed, same vote schedule — once on the
// interlocked engine and once on the ACS engine, and demands the two
// protocols are observationally equivalent: every node of both runs agrees
// on byte-identical vote sets (canonical hash over serial‖code), and on
// both engines a full stop/recover cycle after consensus reproduces each
// node's StateHash exactly — the ACS result must journal and recover
// through the same engine-agnostic path as the interlocked one. (The raw
// hashes are not compared *across* engines: a UCERT pins any n−f of the
// endorsement signatures, so two runs legally differ in which subset each
// cert carries even when every decision matches.)
func TestConsensusEngineDifferential(t *testing.T) {
	const (
		seed       = 3
		numVC      = 4
		numBallots = 6
	)
	type outcome struct {
		setHash    [32]byte
		setLen     int
		electionID string
	}
	run := func(t *testing.T, engine EngineFactory) outcome {
		rng := rand.New(rand.NewPCG(seed, 0xD1FF)) //nolint:gosec // test schedule only
		lp := transport.LinkProfile{Latency: 200 * time.Microsecond, Jitter: time.Millisecond, DupRate: 0.10}
		c := newSimClusterJE(t, seed, nil, numBallots, numVC, lp, sweepStack(seed),
			journalDirs(t, numVC), sweepJournalOptions(seed), engine)
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
				t.Fatalf("vote %d: %v", serial, err)
			}
		}
		results := runConsensusAll(t, c, seed, nil, numVC)
		h := CanonicalVoteSetHash(c.data.Manifest.ElectionID, results[0])
		for i := 1; i < numVC; i++ {
			if CanonicalVoteSetHash(c.data.Manifest.ElectionID, results[i]) != h {
				t.Fatalf("node %d disagrees with node 0 within one engine", i)
			}
		}
		// Post-recovery state: stop every node and relaunch it from its
		// journal — the recovered incarnation must hash identically to the
		// one that died, consensus result included.
		for i := 0; i < numVC; i++ {
			pre := c.node(i).StateHash()
			c.StopNode(i)
			c.RestartNode(i)
			if got := c.node(i).StateHash(); got != pre {
				t.Errorf("node %d: post-recovery state hash differs from pre-stop state", i)
			}
		}
		return outcome{h, len(results[0]), c.data.Manifest.ElectionID}
	}

	var interlocked, acs outcome
	t.Run("interlocked", func(t *testing.T) { interlocked = run(t, InterlockedEngine) })
	t.Run("acs", func(t *testing.T) { acs = run(t, ACSEngine) })
	if interlocked.setLen != numBallots {
		t.Errorf("interlocked engine agreed on %d ballots, want %d", interlocked.setLen, numBallots)
	}
	if interlocked.setHash != acs.setHash {
		t.Errorf("engines disagree: interlocked and ACS vote sets are not byte-identical")
	}
}

package benchmark

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"ddemos/internal/auditor"
	"ddemos/internal/bb"
	"ddemos/internal/crypto/zkp"
	"ddemos/internal/ea"
	"ddemos/internal/trustee"
	"ddemos/internal/vc"
)

// TallyPoint is one column of the publish-phase tally ablation: the same
// published board verified one way.
type TallyPoint struct {
	// Config is "reference" — the per-element verifiers (the batch
	// verifier's locator and test oracle) looped single-threaded over the
	// published Result — or "shipped": the node combine and auditor.Audit
	// as deployed.
	Config     string
	CombineSec float64 // reference: the per-element loop; shipped: the successful combine attempt
	AuditSec   float64 // shipped only: wall time of a full auditor pass
	Speedup    float64 // reference CombineSec / this CombineSec
	Attempts   int64   // shipped only: combine attempts the node needed
	Fallbacks  int64   // shipped only: batch chunks that fell back to per-element checks
}

// TallyAblationConfig tunes RunTallyAblation.
type TallyAblationConfig struct {
	// Ballots is the pool size (default 10000). Every unvoted ballot still
	// costs two audited parts, so combine work scales with the pool, not
	// the turnout — exactly the regime the batch verifier targets.
	Ballots int
	// Votes is the turnout (default 500).
	Votes int
	// Trustees is Nt (default 3; ht defaults to ⌊Nt/2⌋+1).
	Trustees int
	// Workers bounds the parallel columns' worker pools (0 = GOMAXPROCS).
	Workers int
	// Seed makes the election deterministic (default "tally-ablation").
	Seed string
}

func (c TallyAblationConfig) withDefaults() TallyAblationConfig {
	if c.Ballots <= 0 {
		c.Ballots = 10_000
	}
	if c.Votes <= 0 {
		c.Votes = 500
	}
	if c.Votes > c.Ballots {
		c.Votes = c.Ballots
	}
	if c.Trustees <= 0 {
		c.Trustees = 3
	}
	if c.Seed == "" {
		c.Seed = "tally-ablation"
	}
	return c
}

// tallyFixture is the shared election state every ablation column replays:
// the agreed vote set with enough VC signatures, the master-key shares, and
// the honest trustee posts, all computed once.
type tallyFixture struct {
	data  *ea.ElectionData
	set   []vc.VotedBallot
	sigs  [][]byte
	posts []*bb.TrusteePost
}

// buildTallyFixture runs EA setup and synthesizes the publish-phase inputs
// directly — no VC nodes, no network. The vote set is built from the ballot
// secrets (serial i votes part i%2, option i%m), signed with the VC keys the
// manifest advertises, so BB ingress validation is exercised for real.
func buildTallyFixture(cfg TallyAblationConfig) (*tallyFixture, error) {
	start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	data, err := ea.Setup(ea.Params{
		ElectionID:  "tally-ablation-" + cfg.Seed,
		Options:     []string{"alpha", "beta"},
		NumBallots:  cfg.Ballots,
		NumVC:       4,
		NumBB:       1,
		NumTrustees: cfg.Trustees,
		VotingStart: start,
		VotingEnd:   start.Add(time.Hour),
		Seed:        []byte(cfg.Seed),
	})
	if err != nil {
		return nil, err
	}
	m := len(data.Manifest.Options)
	set := make([]vc.VotedBallot, 0, cfg.Votes)
	for i := 0; i < cfg.Votes; i++ {
		b := data.Ballots[i]
		part, opt := i%2, i%m
		set = append(set, vc.VotedBallot{
			Serial: b.Serial,
			Code:   b.Parts[part].Lines[opt].VoteCode,
		})
	}
	sort.Slice(set, func(i, j int) bool { return set[i].Serial < set[j].Serial })

	f := &tallyFixture{data: data, set: set}
	f.sigs = make([][]byte, data.Manifest.FaultyVC()+1)
	for vi := range f.sigs {
		f.sigs[vi] = vc.SignVoteSetWith(data.VC[vi].Private, data.Manifest.ElectionID, set)
	}

	// Compute the honest posts once against a scratch node; every column
	// replays the same bytes.
	scratch, err := f.bootNode()
	if err != nil {
		return nil, err
	}
	reader := bb.NewReader([]bb.API{scratch})
	ht := data.Manifest.TrusteeThreshold
	f.posts = make([]*bb.TrusteePost, ht)
	for i := range f.posts {
		tr, err := trustee.New(data.Trustees[i])
		if err != nil {
			return nil, err
		}
		tr.Workers = cfg.Workers
		if f.posts[i], err = tr.ComputePost(reader); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// bootNode starts a fresh BB node and feeds it the agreed vote set and
// enough master-key shares to publish the cast data.
func (f *tallyFixture) bootNode() (*bb.Node, error) {
	node, err := bb.NewNode(f.data.BB)
	if err != nil {
		return nil, err
	}
	for vi, s := range f.sigs {
		if err := node.SubmitVoteSet(vi, f.set, s); err != nil {
			return nil, fmt.Errorf("vote set from vc %d: %w", vi, err)
		}
	}
	for vi := 0; vi < f.data.Manifest.ReceiptThreshold(); vi++ {
		if err := node.SubmitMskShare(f.data.VC[vi].Msk); err != nil {
			return nil, fmt.Errorf("msk share %d: %w", vi, err)
		}
	}
	if _, err := node.Cast(); err != nil {
		return nil, fmt.Errorf("cast data not published: %w", err)
	}
	return node, nil
}

// runShipped replays the fixture's posts against a fresh node and measures
// the combine and a full audit, both as deployed. It returns the node's
// board for the reference column to verify.
func (f *tallyFixture) runShipped(workers int) (TallyPoint, *bb.Reader, error) {
	node, err := f.bootNode()
	if err != nil {
		return TallyPoint{}, nil, err
	}
	node.CombineWorkers = workers
	for _, p := range f.posts {
		if err := node.SubmitTrusteePost(p); err != nil {
			return TallyPoint{}, nil, fmt.Errorf("post %d: %w", p.Trustee, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if _, err := node.WaitResult(ctx); err != nil {
		return TallyPoint{}, nil, err
	}
	snap := node.Metrics()

	reader := bb.NewReader([]bb.API{node})
	auditStart := time.Now()
	rep, err := auditor.AuditWith(reader, nil, auditor.Options{Workers: workers})
	auditTime := time.Since(auditStart)
	if err != nil {
		return TallyPoint{}, nil, fmt.Errorf("audit: %w", err)
	}
	if !rep.OK() {
		return TallyPoint{}, nil, fmt.Errorf("audit failed: %v", rep.Failures[0])
	}
	return TallyPoint{
		Config:     "shipped",
		CombineSec: snap.CombineTime.Seconds(),
		AuditSec:   auditTime.Seconds(),
		Attempts:   snap.CombineAttempts,
		Fallbacks:  snap.BatchFallbacks,
	}, reader, nil
}

// runReference verifies every opening and proof of the published result
// with the per-element verifiers, single-threaded: what the publish phase
// cost before anything was batched, and the oracle the batch verifier is
// tested against. (The m tally openings, 0.01 % of the statements, need the
// recomputed aggregate and are left to the audit.)
func runReference(reader *bb.Reader) (TallyPoint, error) {
	man, err := reader.Manifest()
	if err != nil {
		return TallyPoint{}, err
	}
	init, err := reader.Init()
	if err != nil {
		return TallyPoint{}, err
	}
	cast, err := reader.Cast()
	if err != nil {
		return TallyPoint{}, err
	}
	res, err := reader.Result()
	if err != nil {
		return TallyPoint{}, err
	}
	ck := man.CommitmentKey()
	master := zkp.MasterChallenge(man.ElectionID, cast.Coins)
	start := time.Now()
	for _, o := range res.Openings {
		row := &init.Ballots[o.Serial-1].Parts[o.Part][o.Row]
		for col, ct := range row.Commitment {
			if !ck.VerifyOpening(ct, o.Ms[col], o.Rs[col]) {
				return TallyPoint{}, fmt.Errorf("opening (%d,%d,%d) col %d rejected", o.Serial, o.Part, o.Row, col)
			}
		}
	}
	for _, p := range res.Proofs {
		row := &init.Ballots[p.Serial-1].Parts[p.Part][p.Row]
		for col, ct := range row.Commitment {
			c := zkp.DeriveChallenge(master, p.Serial, p.Part, p.Row, col)
			if !zkp.VerifyBit(ck, ct, row.BitCommits[col], p.Bits[col], c) {
				return TallyPoint{}, fmt.Errorf("bit proof (%d,%d,%d) col %d rejected", p.Serial, p.Part, p.Row, col)
			}
		}
		c := zkp.DeriveChallenge(master, p.Serial, p.Part, p.Row, zkp.SumProofCol)
		if !zkp.VerifySum(ck, row.Commitment, 1, row.SumCommit, p.Sum, c) {
			return TallyPoint{}, fmt.Errorf("sum proof (%d,%d,%d) rejected", p.Serial, p.Part, p.Row)
		}
	}
	return TallyPoint{Config: "reference", CombineSec: time.Since(start).Seconds()}, nil
}

// RunTallyAblation measures the publish phase over one election two ways:
// "shipped" is the node combine and the auditor as deployed (scalar
// combination plus the batch verifier, on cfg.Workers goroutines), and
// "reference" is the per-element verifiers looped single-threaded over the
// result the shipped node published. The shipped column's Speedup —
// reference seconds per shipped combine second — is the `tally-speedup`
// ratio the CI baseline gates: a ratio over identical statements, so runner
// speed cannot flap it.
func RunTallyAblation(cfg TallyAblationConfig) ([]TallyPoint, error) {
	cfg = cfg.withDefaults()
	f, err := buildTallyFixture(cfg)
	if err != nil {
		return nil, err
	}
	shipped, reader, err := f.runShipped(cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("tally ablation (shipped): %w", err)
	}
	ref, err := runReference(reader)
	if err != nil {
		return nil, fmt.Errorf("tally ablation (reference): %w", err)
	}
	ref.Speedup = 1
	if shipped.CombineSec > 0 {
		shipped.Speedup = ref.CombineSec / shipped.CombineSec
	}
	return []TallyPoint{ref, shipped}, nil
}

// PrintTallyAblation formats the ablation, one row per configuration.
func PrintTallyAblation(w io.Writer, points []TallyPoint, cfg TallyAblationConfig) {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "# Tally ablation: publish-phase combine + audit, %d ballots / %d votes / %d trustees\n",
		cfg.Ballots, cfg.Votes, cfg.Trustees)
	fmt.Fprintf(w, "%-18s %-12s %-12s %-10s %-9s %-9s\n",
		"config", "combine-sec", "audit-sec", "speedup", "attempts", "fallbacks")
	for _, p := range points {
		fmt.Fprintf(w, "%-18s %-12.3f %-12.3f %-10.2f %-9d %-9d\n",
			p.Config, p.CombineSec, p.AuditSec, p.Speedup, p.Attempts, p.Fallbacks)
	}
}

// ByzantinePoint is one row of the Byzantine tally sweep: the combine cost
// of a publish phase with k garbage-share trustees submitting first.
type ByzantinePoint struct {
	Garbage    int     // garbage trustees whose posts arrive before any honest post
	CombineSec float64 // total combine time across all attempts
	Attempts   int64   // combine attempts until the result published
	Blames     int64   // trustees the blame protocol pinned
}

// RunByzantineTallySweep measures how combine cost grows with the number of
// garbage-share trustees. Garbage posts are submitted first so every
// combine attempt until blame completes is poisoned — the seed's
// exponential subset search made this the worst case; the blame protocol
// keeps it linear in k (one failed attempt plus per-row classification per
// round of blame).
func RunByzantineTallySweep(cfg TallyAblationConfig, maxGarbage int) ([]ByzantinePoint, error) {
	cfg = cfg.withDefaults()
	f, err := buildTallyFixture(cfg)
	if err != nil {
		return nil, err
	}
	nt := cfg.Trustees
	ht := f.data.Manifest.TrusteeThreshold
	if maxGarbage < 0 {
		maxGarbage = 0
	}
	if maxGarbage > nt-ht {
		maxGarbage = nt - ht
	}
	// Honest posts for every trustee, plus garbage twins for the first
	// maxGarbage positions (the only ones the sweep poisons).
	scratch, err := f.bootNode()
	if err != nil {
		return nil, err
	}
	scratchReader := bb.NewReader([]bb.API{scratch})
	honest := make([]*bb.TrusteePost, nt)
	garbage := make([]*bb.TrusteePost, nt)
	for i := 0; i < nt; i++ {
		tr, err := trustee.New(f.data.Trustees[i])
		if err != nil {
			return nil, err
		}
		tr.Workers = cfg.Workers
		if i < len(f.posts) && f.posts[i] != nil {
			honest[i] = f.posts[i]
		} else if honest[i], err = tr.ComputePost(scratchReader); err != nil {
			return nil, err
		}
		if i < maxGarbage {
			tr.SetByzantine(trustee.GarbageShares)
			if garbage[i], err = tr.ComputePost(scratchReader); err != nil {
				return nil, err
			}
		}
	}

	points := make([]ByzantinePoint, 0, maxGarbage+1)
	for k := 0; k <= maxGarbage; k++ {
		node, err := f.bootNode()
		if err != nil {
			return nil, err
		}
		node.CombineWorkers = cfg.Workers
		// k garbage posts first, then honest posts until a result is
		// possible: the node must blame its way out of k poisoned attempts.
		for i := 0; i < k; i++ {
			if err := node.SubmitTrusteePost(garbage[i]); err != nil {
				return nil, fmt.Errorf("byzantine sweep (k=%d): garbage post: %w", k, err)
			}
		}
		for i := k; i < nt; i++ {
			if err := node.SubmitTrusteePost(honest[i]); err != nil {
				return nil, fmt.Errorf("byzantine sweep (k=%d): honest post: %w", k, err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		_, err = node.WaitResult(ctx)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("byzantine sweep (k=%d): %w", k, err)
		}
		snap := node.Metrics()
		points = append(points, ByzantinePoint{
			Garbage:    k,
			CombineSec: snap.CombineTime.Seconds(),
			Attempts:   snap.CombineAttempts,
			Blames:     snap.BadPostBlames,
		})
	}
	return points, nil
}

// PrintByzantineTallySweep formats the sweep, one row per garbage count.
func PrintByzantineTallySweep(w io.Writer, points []ByzantinePoint, cfg TallyAblationConfig) {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "# Byzantine tally sweep: combine cost vs garbage trustees (%d ballots, Nt=%d)\n",
		cfg.Ballots, cfg.Trustees)
	fmt.Fprintf(w, "%-9s %-12s %-9s %-9s\n", "garbage", "combine-sec", "attempts", "blames")
	for _, p := range points {
		fmt.Fprintf(w, "%-9d %-12.3f %-9d %-9d\n", p.Garbage, p.CombineSec, p.Attempts, p.Blames)
	}
}

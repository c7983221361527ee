package auditor_test

import (
	"context"
	"math/big"
	"strings"
	"testing"
	"time"

	"ddemos/internal/auditor"
	"ddemos/internal/ballot"
	"ddemos/internal/bb"
	"ddemos/internal/core"
	"ddemos/internal/ea"
	"ddemos/internal/voter"
)

// election runs a small full election and returns everything an auditor
// needs, plus the voters' results for delegation.
func election(t *testing.T, votes []int) (*core.Cluster, *ea.ElectionData, []*voter.CastResult) {
	t.Helper()
	start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	data, err := ea.Setup(ea.Params{
		ElectionID:  "audit-test",
		Options:     []string{"red", "blue"},
		NumBallots:  len(votes),
		NumVC:       4,
		NumBB:       3,
		NumTrustees: 3,
		VotingStart: start,
		VotingEnd:   start.Add(time.Hour),
		Seed:        []byte("audit-test"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := core.NewCluster(data, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Stop)
	services := make([]voter.Service, len(cluster.VCs))
	for i, n := range cluster.VCs {
		services[i] = n
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	results := make([]*voter.CastResult, len(votes))
	for i, opt := range votes {
		if opt < 0 {
			continue
		}
		cl := &voter.Client{Ballot: data.Ballots[i], Services: services, Patience: 10 * time.Second}
		res, err := cl.Cast(ctx, opt)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	if _, err := cluster.RunPipeline(ctx); err != nil {
		t.Fatal(err)
	}
	return cluster, data, results
}

func TestCleanElectionAudits(t *testing.T) {
	cluster, data, results := election(t, []int{0, 1, 0, -1})
	var pkgs []*ballot.AuditPackage
	for i, res := range results {
		cl := &voter.Client{Ballot: data.Ballots[i]}
		pkg, err := cl.AuditPackage(res)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	rep, err := auditor.Audit(cluster.Reader, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean election failed audit: %v", rep.Failures)
	}
	if rep.BallotsChecked != 4 || rep.DelegatedChecks != 4 {
		t.Fatalf("coverage: %+v", rep)
	}
	if rep.ProofsChecked == 0 || rep.OpeningsChecked == 0 {
		t.Fatal("no proofs/openings checked")
	}
}

func TestDetectsModificationAttack(t *testing.T) {
	// Malicious EA prints a ballot whose options are swapped relative to the
	// BB commitments. The victim's delegated package must fail the audit.
	cluster, data, _ := election(t, []int{-1, 1})
	victim := data.Ballots[0]
	lines := victim.Parts[ballot.PartA].Lines
	lines[0].Option, lines[1].Option = lines[1].Option, lines[0].Option

	pkg := victim.AbstainAuditPackage() // part A is handed to the auditor
	rep, err := auditor.Audit(cluster.Reader, []*ballot.AuditPackage{pkg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("modification attack not detected")
	}
}

func TestDetectsWrongCastCodeClaim(t *testing.T) {
	// A voter claims a cast code that is not in the tally set: the
	// delegated check (f) must flag it.
	cluster, data, results := election(t, []int{0, -1})
	cl := &voter.Client{Ballot: data.Ballots[0]}
	pkg, err := cl.AuditPackage(results[0])
	if err != nil {
		t.Fatal(err)
	}
	pkg.CastCode = append([]byte(nil), pkg.CastCode...)
	pkg.CastCode[0] ^= 0xFF
	rep, err := auditor.Audit(cluster.Reader, []*ballot.AuditPackage{pkg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("missing cast code not detected")
	}
}

func TestDetectsLyingMinorityTransparently(t *testing.T) {
	// One lying BB of three: the majority reader hides it, audit passes.
	start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	data, err := ea.Setup(ea.Params{
		ElectionID:  "audit-liar",
		Options:     []string{"red", "blue"},
		NumBallots:  2,
		NumVC:       4,
		NumBB:       3,
		NumTrustees: 3,
		VotingStart: start,
		VotingEnd:   start.Add(time.Hour),
		Seed:        []byte("audit-liar"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := core.NewCluster(data, core.Options{LyingBB: map[int]bool{0: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	services := make([]voter.Service, len(cluster.VCs))
	for i, n := range cluster.VCs {
		services[i] = n
	}
	cl := &voter.Client{Ballot: data.Ballots[0], Services: services, Patience: 10 * time.Second}
	if _, err := cl.Cast(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.RunPipeline(ctx); err != nil {
		t.Fatal(err)
	}
	rep, err := auditor.Audit(cluster.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("audit failed despite honest majority: %v", rep.Failures)
	}
}

// tamperedBoard serves an honest node's board with its Result and Init
// replaced: what an auditor reads when every BB replica it reaches lies.
type tamperedBoard struct {
	bb.API
	result *bb.Result
	init   *ea.BBInit
}

func (b tamperedBoard) Result() (*bb.Result, error) { return b.result, nil }
func (b tamperedBoard) Init() (*ea.BBInit, error)   { return b.init, nil }

// TestMalformedBoardFailsReportWithoutPanic feeds the auditor results a
// hostile board could serve — nil scalars (gob decodes an absent field to a
// nil pointer), short slices, coordinates past the init data — and expects
// a failed report every time, never a panic.
func TestMalformedBoardFailsReportWithoutPanic(t *testing.T) {
	cluster, _, _ := election(t, []int{0, 1, -1})
	honest := cluster.BBs[0]
	goodResult, err := honest.Result()
	if err != nil {
		t.Fatal(err)
	}
	goodInit, err := honest.Init()
	if err != nil {
		t.Fatal(err)
	}
	if len(goodResult.Openings) == 0 || len(goodResult.Proofs) == 0 {
		t.Fatal("fixture publishes no openings or no proofs")
	}
	// clone copies the slices a case may write to (the scalars stay shared).
	clone := func() *bb.Result {
		r := *goodResult
		r.Counts = append([]int64(nil), r.Counts...)
		r.TallyMs = append([]*big.Int(nil), r.TallyMs...)
		r.TallyRs = append([]*big.Int(nil), r.TallyRs...)
		r.Openings = append([]bb.OpenedRow(nil), r.Openings...)
		o := &r.Openings[0]
		o.Ms = append([]*big.Int(nil), o.Ms...)
		o.Rs = append([]*big.Int(nil), o.Rs...)
		r.Proofs = append([]bb.ProvenRow(nil), r.Proofs...)
		r.Proofs[0].Bits = append(r.Proofs[0].Bits[:0:0], r.Proofs[0].Bits...)
		return &r
	}
	cases := map[string]func(r *bb.Result, init *ea.BBInit){
		"nil opening Ms":   func(r *bb.Result, _ *ea.BBInit) { r.Openings[0].Ms[1] = nil },
		"nil opening Rs":   func(r *bb.Result, _ *ea.BBInit) { r.Openings[0].Rs[0] = nil },
		"short opening Ms": func(r *bb.Result, _ *ea.BBInit) { r.Openings[0].Ms = r.Openings[0].Ms[:1] },
		"nil TallyMs":      func(r *bb.Result, _ *ea.BBInit) { r.TallyMs[0] = nil },
		"nil TallyRs":      func(r *bb.Result, _ *ea.BBInit) { r.TallyRs[1] = nil },
		"nil bit Z0":       func(r *bb.Result, _ *ea.BBInit) { r.Proofs[0].Bits[0].Z0 = nil },
		"nil sum Z":        func(r *bb.Result, _ *ea.BBInit) { r.Proofs[0].Sum.Z = nil },
		"short Bits":       func(r *bb.Result, _ *ea.BBInit) { r.Proofs[0].Bits = r.Proofs[0].Bits[:1] },
		"short Counts":     func(r *bb.Result, _ *ea.BBInit) { r.Counts = r.Counts[:1] },
		"serial past the init data": func(_ *bb.Result, init *ea.BBInit) {
			init.Ballots = init.Ballots[:len(init.Ballots)-1]
		},
		"row with too few commitments": func(_ *bb.Result, init *ea.BBInit) {
			ballots := append([]ea.BBBallot(nil), init.Ballots...)
			rows := append([]ea.BBRow(nil), ballots[0].Parts[1]...)
			rows[0].Commitment = rows[0].Commitment[:1]
			ballots[0].Parts[1] = rows
			init.Ballots = ballots
		},
	}
	for name, tamper := range cases {
		t.Run(name, func(t *testing.T) {
			res, init := clone(), *goodInit
			tamper(res, &init)
			reader := bb.NewReader([]bb.API{tamperedBoard{API: honest, result: res, init: &init}})
			rep, err := auditor.Audit(reader, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK() || !strings.Contains(rep.Failures[0], "malformed board data") {
				t.Fatalf("failures = %v", rep.Failures)
			}
		})
	}
	// The untampered clone still audits clean through the same wrapper.
	init := *goodInit
	reader := bb.NewReader([]bb.API{tamperedBoard{API: honest, result: clone(), init: &init}})
	if rep, err := auditor.Audit(reader, nil); err != nil || !rep.OK() {
		t.Fatalf("control: err=%v report=%+v", err, rep)
	}
}

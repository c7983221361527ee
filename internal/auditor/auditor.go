// Package auditor implements the election auditors of §III-I: any party can
// read the Bulletin Board (by majority) and verify the complete election,
// and voters can delegate their private checks without revealing their
// choices. The checks map one-to-one onto the paper's list:
//
//	(a) within each opened ballot, no two vote codes are equal;
//	(b) no ballot part has more than MaxSelections submitted vote codes;
//	(c) within each ballot, at most one part was used;
//	(d) all published commitment openings are valid unit vectors;
//	(e) all ZK proofs on used ballot parts are complete and valid under the
//	    voter-coin challenge;
//	(f) delegated: submitted vote codes match what the voters report;
//	(g) delegated: the opened unused parts match the voters' ballot copies.
//
// Plus the global checks that make the tally end-to-end verifiable: the
// published counts open the homomorphic sum of exactly the cast
// commitments, and the challenge coins are consistent with the cast codes.
//
// The expensive checks — (d), (e) and the tally opening — go through the
// same batch verifier the BB nodes use (zkp.VerifyEach): one random-linear-
// combination test per chunk, per-element re-checks only to name the
// failures of a rejected chunk. Failure messages are reported in
// deterministic board order.
package auditor

import (
	"errors"
	"fmt"
	"math/big"

	"ddemos/internal/ballot"
	"ddemos/internal/bb"
	"ddemos/internal/crypto/elgamal"
	"ddemos/internal/crypto/votecode"
	"ddemos/internal/crypto/zkp"
	"ddemos/internal/ea"
	"ddemos/internal/voter"
)

// Report is the outcome of an audit.
type Report struct {
	// Failures lists every violated check, human-readable.
	Failures []string
	// BallotsChecked / ProofsChecked / OpeningsChecked count the work done.
	BallotsChecked  int
	ProofsChecked   int
	OpeningsChecked int
	DelegatedChecks int
	// Manifest and Result are the board the audit read. Result is nil
	// unless the board passed its shape check, so Result.Counts lines up
	// with Manifest.Options.
	Manifest ea.Manifest
	Result   *bb.Result
}

// OK reports whether the election verified completely.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

func (r *Report) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// Audit runs the full election verification, plus delegated checks for any
// provided voter packages.
func Audit(reader *bb.Reader, packages []*ballot.AuditPackage) (*Report, error) {
	rep := &Report{}
	// A majority that agrees on bytes that do not decode is a malformed
	// board, which fails the report; no majority at all means the audit
	// could not run.
	unread := func(what string, err error) (*Report, error) {
		if errors.Is(err, bb.ErrMalformed) {
			rep.failf("malformed board data: %s: %v", what, err)
			return rep, nil
		}
		return nil, fmt.Errorf("auditor: reading %s: %w", what, err)
	}
	man, err := reader.Manifest()
	if err != nil {
		return unread("manifest", err)
	}
	rep.Manifest = man
	init, err := reader.Init()
	if err != nil {
		return unread("init data", err)
	}
	voteSet, err := reader.VoteSet()
	if err != nil {
		return unread("vote set", err)
	}
	cast, err := reader.Cast()
	if err != nil {
		return unread("cast data", err)
	}
	result, err := reader.Result()
	if err != nil {
		return unread("result", err)
	}

	// The board is untrusted input: nothing below may index or dereference
	// it before its dimensions are known to be the manifest's.
	if err := checkShape(&man, init, cast, result); err != nil {
		rep.failf("malformed board data: %v", err)
		return rep, nil
	}
	rep.Result = result

	m := len(man.Options)
	ck := man.CommitmentKey()
	master := zkp.MasterChallenge(man.ElectionID, cast.Coins)

	// Check coins are consistent with the cast marks (challenge integrity).
	if len(cast.Coins) != len(cast.Marks) {
		rep.failf("coins length %d != marks %d", len(cast.Coins), len(cast.Marks))
	} else {
		for i, mk := range cast.Marks {
			if cast.Coins[i] != mk.Part {
				rep.failf("coin %d inconsistent with cast mark part", i)
			}
		}
	}

	// (a) vote codes distinct within each opened ballot.
	for bi := range cast.Codes {
		seen := make(map[string]bool, 2*m)
		for part := 0; part < 2; part++ {
			for row, code := range cast.Codes[bi][part] {
				if code == nil {
					rep.failf("ballot %d part %d row %d failed to decrypt", bi+1, part, row)
					continue
				}
				if seen[string(code)] {
					rep.failf("ballot %d: duplicate vote code", bi+1)
				}
				seen[string(code)] = true
			}
		}
		rep.BallotsChecked++
	}

	// (b) and (c): at most MaxSelections codes per part, one part per
	// ballot, every cast code actually on the claimed ballot.
	type usage struct {
		parts map[uint8]int
	}
	used := make(map[uint64]*usage)
	for _, mk := range cast.Marks {
		u := used[mk.Serial]
		if u == nil {
			u = &usage{parts: make(map[uint8]int, 2)}
			used[mk.Serial] = u
		}
		u.parts[mk.Part]++
	}
	for serial, u := range used {
		if len(u.parts) > 1 {
			rep.failf("ballot %d: both parts used", serial)
		}
		for part, cnt := range u.parts {
			if cnt > man.MaxSelections {
				rep.failf("ballot %d part %d: %d codes submitted (max %d)", serial, part, cnt, man.MaxSelections)
			}
		}
	}
	// Every vote-set entry must map to a mark (i.e., the code exists on the
	// ballot it claims).
	if len(voteSet) != len(cast.Marks) {
		rep.failf("vote set has %d entries but %d were located on ballots", len(voteSet), len(cast.Marks))
	}

	auditOpenings(rep, &man, init, result, ck)
	auditProofs(rep, &man, init, result, ck, master)

	// Completeness: every row of every used part must carry proofs, every
	// other row must be opened.
	provenRows := make(map[[3]uint64]bool, len(result.Proofs))
	for _, p := range result.Proofs {
		provenRows[[3]uint64{p.Serial, uint64(p.Part), uint64(p.Row)}] = true
	}
	openedRows := make(map[[3]uint64]bool, len(result.Openings))
	for _, o := range result.Openings {
		openedRows[[3]uint64{o.Serial, uint64(o.Part), uint64(o.Row)}] = true
	}
	// The expectation of which rows carry proofs vs openings follows the
	// same §III-H validation BB nodes and trustees apply: an invalidly-used
	// ballot (both parts, too many codes) is treated as unvoted, so both
	// parts must be opened. Checks (b)/(c) above still flag the anomaly.
	usedPart := bb.UsedParts(man.MaxSelections, cast.Marks)
	for serial := uint64(1); serial <= uint64(man.NumBallots); serial++ {
		up, voted := usedPart[serial]
		for part := uint8(0); part < 2; part++ {
			for row := 0; row < m; row++ {
				k := [3]uint64{serial, uint64(part), uint64(row)}
				if voted && part == up {
					if !provenRows[k] {
						rep.failf("used part (%d,%d,%d) lacks a completed proof", serial, part, row)
					}
				} else if !openedRows[k] {
					rep.failf("audit row (%d,%d,%d) was not opened", serial, part, row)
				}
			}
		}
	}

	// Tally: published counts must open the homomorphic sum of exactly the
	// cast commitments.
	auditTally(rep, &man, init, cast, result)

	// (f)+(g): delegated voter checks.
	for _, pkg := range packages {
		rep.DelegatedChecks++
		if pkg.CastCode != nil {
			found := false
			for _, vb := range voteSet {
				if vb.Serial == pkg.Serial && votecode.Equal(vb.Code, pkg.CastCode) {
					found = true
					break
				}
			}
			if !found {
				rep.failf("delegated: ballot %d cast code missing from tally set", pkg.Serial)
			}
		}
		if err := voter.CheckUnusedPart(&man, cast, result, pkg); err != nil {
			rep.failf("delegated: ballot %d unused part: %v", pkg.Serial, err)
		}
	}
	return rep, nil
}

// checkShape verifies that the init data, cast data and result have the
// dimensions the manifest dictates (a ballot and a code list per serial, m
// rows of m commitments per part, m-ary result vectors, marks, openings and
// proofs on rows that exist), so the checks can index and do arithmetic on
// them.
func checkShape(man *ea.Manifest, init *ea.BBInit, cast *bb.CastData, result *bb.Result) error {
	m := len(man.Options)
	if len(init.Ballots) != man.NumBallots {
		return fmt.Errorf("init data has %d ballots, manifest says %d", len(init.Ballots), man.NumBallots)
	}
	if len(cast.Codes) != man.NumBallots {
		return fmt.Errorf("cast data has codes for %d ballots, manifest says %d", len(cast.Codes), man.NumBallots)
	}
	for bi := range init.Ballots {
		for _, rows := range init.Ballots[bi].Parts {
			if len(rows) != m {
				return fmt.Errorf("ballot %d: part with %d rows, want %d", bi+1, len(rows), m)
			}
			for _, row := range rows {
				if len(row.Commitment) != m || len(row.BitCommits) != m {
					return fmt.Errorf("ballot %d: row commitment arity", bi+1)
				}
			}
		}
	}
	if err := bb.ValidateResultShape(result, m); err != nil {
		return fmt.Errorf("result: %w", err)
	}
	// Every row a mark, an opening or a proof names must be on the board.
	var err error
	inRange := func(what string, serial uint64, part uint8, row int) {
		if err == nil && (serial == 0 || serial > uint64(man.NumBallots) || part > 1 || row < 0 || row >= m) {
			err = fmt.Errorf("%s with invalid coordinates (%d,%d,%d)", what, serial, part, row)
		}
	}
	for _, mk := range cast.Marks {
		inRange("cast mark", mk.Serial, mk.Part, mk.Row)
	}
	for _, o := range result.Openings {
		inRange("opening", o.Serial, o.Part, o.Row)
	}
	for _, p := range result.Proofs {
		inRange("proof", p.Serial, p.Part, p.Row)
	}
	return err
}

// verifyEach runs n statements through the batch verifier and returns a
// bad[i] flag per statement (workers 0 = one per CPU).
func verifyEach(ck elgamal.CommitmentKey, workers, n int, add func(b *zkp.Batch, i int), check func(i int) bool) []bool {
	bad := make([]bool, n)
	failed, _ := zkp.VerifyEach(ck, workers, n, 0, add, check)
	for _, i := range failed {
		bad[i] = true
	}
	return bad
}

// auditOpenings runs check (d): every published opening matches its
// commitment and encodes a correctly-labeled unit vector. Opening oi's
// column col is statement oi·m + col.
func auditOpenings(rep *Report, man *ea.Manifest, init *ea.BBInit, result *bb.Result, ck elgamal.CommitmentKey) {
	m := len(man.Options)
	at := func(i int) (elgamal.Ciphertext, *big.Int, *big.Int) {
		o, col := &result.Openings[i/m], i%m
		return init.Ballots[o.Serial-1].Parts[o.Part][o.Row].Commitment[col], o.Ms[col], o.Rs[col]
	}
	bad := verifyEach(ck, 0, len(result.Openings)*m,
		func(b *zkp.Batch, i int) { b.AddOpening(at(i)) },
		func(i int) bool { return ck.VerifyOpening(at(i)) })
	for oi := range result.Openings {
		o := &result.Openings[oi]
		rep.OpeningsChecked++
		matches := true
		for col := 0; col < m; col++ {
			if bad[oi*m+col] {
				rep.failf("opening (%d,%d,%d) col %d does not match commitment", o.Serial, o.Part, o.Row, col)
				matches = false
			}
		}
		if !matches {
			continue
		}
		hot, err := (elgamal.VectorOpening{Ms: o.Ms, Rs: o.Rs}).HotIndex()
		if err != nil {
			rep.failf("opening (%d,%d,%d) is not a unit vector: %v", o.Serial, o.Part, o.Row, err)
		} else if hot != o.HotIndex {
			rep.failf("opening (%d,%d,%d) hot index mislabeled", o.Serial, o.Part, o.Row)
		}
	}
}

// auditProofs runs check (e): every published proof verifies under the
// voter-coin challenge. Proof pi contributes m bit-proof statements and, as
// column m, its sum proof: statements pi·(m+1) … pi·(m+1)+m.
func auditProofs(rep *Report, man *ea.Manifest, init *ea.BBInit, result *bb.Result, ck elgamal.CommitmentKey, master []byte) {
	m := len(man.Options)
	at := func(i int) (*bb.ProvenRow, *ea.BBRow, int, *big.Int) {
		p, col := &result.Proofs[i/(m+1)], i%(m+1)
		challengeCol := col
		if col == m {
			challengeCol = zkp.SumProofCol
		}
		return p, &init.Ballots[p.Serial-1].Parts[p.Part][p.Row], col,
			zkp.DeriveChallenge(master, p.Serial, p.Part, p.Row, challengeCol)
	}
	bad := verifyEach(ck, 0, len(result.Proofs)*(m+1),
		func(b *zkp.Batch, i int) {
			p, row, col, c := at(i)
			if col < m {
				b.AddBit(row.Commitment[col], row.BitCommits[col], p.Bits[col], c)
				return
			}
			b.AddSum(row.Commitment, 1, row.SumCommit, p.Sum, c)
		},
		func(i int) bool {
			p, row, col, c := at(i)
			if col < m {
				return zkp.VerifyBit(ck, row.Commitment[col], row.BitCommits[col], p.Bits[col], c)
			}
			return zkp.VerifySum(ck, row.Commitment, 1, row.SumCommit, p.Sum, c)
		})
	for i, failed := range bad {
		rep.ProofsChecked++
		switch p, col := &result.Proofs[i/(m+1)], i%(m+1); {
		case !failed:
		case col < m:
			rep.failf("bit proof (%d,%d,%d) col %d invalid", p.Serial, p.Part, p.Row, col)
		default:
			rep.failf("sum proof (%d,%d,%d) invalid", p.Serial, p.Part, p.Row)
		}
	}
}

// auditTally recomputes the homomorphic sum of the cast commitments and
// verifies the published opening and counts. It deliberately does NOT use
// the BB nodes' incremental aggregate: an independent recomputation is the
// whole point of the audit.
func auditTally(rep *Report, man *ea.Manifest, init *ea.BBInit, cast *bb.CastData, result *bb.Result) {
	m := len(man.Options)
	ck := man.CommitmentKey()
	var sum elgamal.VectorCiphertext
	for _, mk := range cast.Marks {
		ct := init.Ballots[mk.Serial-1].Parts[mk.Part][mk.Row].Commitment
		if sum == nil {
			sum = append(elgamal.VectorCiphertext(nil), ct...)
			continue
		}
		var err error
		if sum, err = sum.Add(ct); err != nil {
			rep.failf("tally: %v", err)
			return
		}
	}
	if sum == nil {
		for _, c := range result.Counts {
			if c != 0 {
				rep.failf("tally: votes reported but none cast")
			}
		}
		return
	}
	bad := verifyEach(ck, 1, m,
		func(b *zkp.Batch, j int) { b.AddOpening(sum[j], result.TallyMs[j], result.TallyRs[j]) },
		func(j int) bool { return ck.VerifyOpening(sum[j], result.TallyMs[j], result.TallyRs[j]) })
	for j := 0; j < m; j++ {
		if bad[j] {
			rep.failf("tally: opening for option %d does not match the homomorphic sum", j)
		}
		if result.TallyMs[j].Cmp(big.NewInt(result.Counts[j])) != 0 {
			rep.failf("tally: published count %d != opened value for option %d", result.Counts[j], j)
		}
	}
}

package ea

import (
	"bytes"
	"testing"
	"time"

	"ddemos/internal/ballot"
	"ddemos/internal/crypto/group"
	"ddemos/internal/crypto/shamir"
	"ddemos/internal/crypto/votecode"
	"ddemos/internal/crypto/zkp"
)

func testParams() Params {
	return Params{
		ElectionID:  "test-election-1",
		Options:     []string{"alpha", "beta", "gamma"},
		NumBallots:  8,
		NumVC:       4,
		NumBB:       3,
		NumTrustees: 3,
		VotingStart: time.Now(),
		VotingEnd:   time.Now().Add(time.Hour),
		Seed:        []byte("deterministic-test-seed"),
	}
}

func TestValidateDefaults(t *testing.T) {
	p := testParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.TrusteeThreshold != 2 {
		t.Fatalf("default ht = %d, want 2", p.TrusteeThreshold)
	}
	if p.MaxSelections != 1 {
		t.Fatalf("default k = %d, want 1", p.MaxSelections)
	}
	if p.FaultyVC() != 1 {
		t.Fatalf("fv = %d, want 1", p.FaultyVC())
	}
	if p.FaultyBB() != 1 {
		t.Fatalf("fb = %d, want 1", p.FaultyBB())
	}
}

func TestValidateRejections(t *testing.T) {
	base := testParams()
	cases := []func(*Params){
		func(p *Params) { p.ElectionID = "" },
		func(p *Params) { p.Options = []string{"solo"} },
		func(p *Params) { p.NumBallots = 0 },
		func(p *Params) { p.NumVC = 3 },
		func(p *Params) { p.NumVC = 100 },
		func(p *Params) { p.NumBB = 0 },
		func(p *Params) { p.NumTrustees = 0 },
		func(p *Params) { p.TrusteeThreshold = 9 },
		func(p *Params) { p.MaxSelections = 5 },
		func(p *Params) { p.VotingEnd = p.VotingStart },
	}
	for i, mutate := range cases {
		p := base
		p.Options = append([]string(nil), base.Options...)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestSetupShapes(t *testing.T) {
	p := testParams()
	data, err := Setup(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Ballots) != p.NumBallots {
		t.Fatalf("ballots = %d", len(data.Ballots))
	}
	if len(data.VC) != p.NumVC {
		t.Fatalf("vc inits = %d", len(data.VC))
	}
	if len(data.Trustees) != p.NumTrustees {
		t.Fatalf("trustee inits = %d", len(data.Trustees))
	}
	if data.BB == nil || len(data.BB.Ballots) != p.NumBallots {
		t.Fatal("bb init missing or wrong size")
	}
	m := len(p.Options)
	for i, b := range data.Ballots {
		if b.Serial != uint64(i+1) {
			t.Fatalf("serial %d at index %d", b.Serial, i)
		}
		for part := 0; part < 2; part++ {
			if len(b.Parts[part].Lines) != m {
				t.Fatalf("ballot %d part %d has %d lines", b.Serial, part, len(b.Parts[part].Lines))
			}
			for _, l := range b.Parts[part].Lines {
				if len(l.VoteCode) != votecode.CodeSize || len(l.Receipt) != votecode.ReceiptSize {
					t.Fatal("line sizes wrong")
				}
			}
		}
	}
}

func TestVoteCodesUniquePerBallot(t *testing.T) {
	data, err := Setup(testParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range data.Ballots {
		seen := map[string]bool{}
		for part := 0; part < 2; part++ {
			for _, l := range b.Parts[part].Lines {
				if seen[string(l.VoteCode)] {
					t.Fatalf("ballot %d: duplicate vote code", b.Serial)
				}
				seen[string(l.VoteCode)] = true
			}
		}
	}
}

func TestVCInitValidatesVoteCodes(t *testing.T) {
	data, err := Setup(testParams())
	if err != nil {
		t.Fatal(err)
	}
	// Every ballot line's code must hash-match exactly one stored line of
	// the corresponding part, at the same row for every VC node.
	for _, b := range data.Ballots {
		for part := 0; part < 2; part++ {
			for _, l := range b.Parts[part].Lines {
				row := -1
				vc0 := data.VC[0].Ballots[b.Serial-1]
				for r, sl := range vc0.Lines[part] {
					if votecode.VerifyCommit(sl.Hash, l.VoteCode, sl.Salt[:]) {
						if row != -1 {
							t.Fatalf("code matches two rows")
						}
						row = r
					}
				}
				if row == -1 {
					t.Fatalf("ballot %d part %d: code not found in VC store", b.Serial, part)
				}
				for _, vcInit := range data.VC[1:] {
					sl := vcInit.Ballots[b.Serial-1].Lines[part][row]
					if !votecode.VerifyCommit(sl.Hash, l.VoteCode, sl.Salt[:]) {
						t.Fatal("row mismatch across VC nodes")
					}
				}
			}
		}
	}
}

func TestReceiptSharesReconstruct(t *testing.T) {
	data, err := Setup(testParams())
	if err != nil {
		t.Fatal(err)
	}
	hv := data.Manifest.ReceiptThreshold()
	b := data.Ballots[2]
	l := b.Parts[ballot.PartB].Lines[1]
	// Find the row for this code.
	row := -1
	for r, sl := range data.VC[0].Ballots[b.Serial-1].Lines[1] {
		if votecode.VerifyCommit(sl.Hash, l.VoteCode, sl.Salt[:]) {
			row = r
		}
	}
	if row < 0 {
		t.Fatal("row not found")
	}
	shares := make([]shamir.Share, 0, hv)
	for i := 0; i < hv; i++ {
		bd := data.VC[i].Ballots[b.Serial-1]
		sl := bd.Lines[1][row]
		v, err := group.DecodeScalar(sl.Share[:])
		if err != nil {
			t.Fatal(err)
		}
		root, ok := FoldSharePath(bd, 1, row, sl.Share, SharePath(bd, 1, row))
		if !ok || !VerifyReceiptShare(data.Manifest.EAPublic, bd.ShareSig[:], data.Manifest.ElectionID, b.Serial, uint32(i+1), root) {
			t.Fatalf("share of node %d does not verify through its path", i)
		}
		shares = append(shares, shamir.Share{Index: uint32(i + 1), Value: v})
	}
	rec, err := shamir.Combine(shares, hv)
	if err != nil {
		t.Fatal(err)
	}
	receipt, err := shamir.ScalarToSecret(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(receipt, l.Receipt) {
		t.Fatalf("reconstructed %x want %x", receipt, l.Receipt)
	}
}

// TestSetupSignsOneRootPerNode: a seeded setup gives every ballot exactly
// Nv root signatures, one per VC node and all distinct, each binding its
// node's index and the ballot's serial; every one of a node's 2m shares
// verifies through its path under that one signature.
func TestSetupSignsOneRootPerNode(t *testing.T) {
	for _, vcOnly := range []bool{true, false} {
		p := testParams()
		p.VCOnly = vcOnly
		data, err := Setup(p)
		if err != nil {
			t.Fatal(err)
		}
		man := &data.Manifest
		for serial := uint64(1); serial <= uint64(p.NumBallots); serial++ {
			sigs := map[[64]byte]bool{}
			for i, v := range data.VC {
				bd := v.Ballots[serial-1]
				sigs[bd.ShareSig] = true
				index := uint32(i + 1)
				root := ShareRoot(bd)
				if !VerifyReceiptShare(man.EAPublic, bd.ShareSig[:], man.ElectionID, serial, index, root) {
					t.Fatalf("VCOnly=%v ballot %d node %d: root signature does not verify", vcOnly, serial, i)
				}
				if VerifyReceiptShare(man.EAPublic, bd.ShareSig[:], man.ElectionID, serial, index%uint32(p.NumVC)+1, root) ||
					VerifyReceiptShare(man.EAPublic, bd.ShareSig[:], man.ElectionID, serial%uint64(p.NumBallots)+1, index, root) {
					t.Fatalf("VCOnly=%v ballot %d node %d: signature verifies for another node or ballot", vcOnly, serial, i)
				}
				for part := uint8(0); part < 2; part++ {
					for row, l := range bd.Lines[part] {
						got, ok := FoldSharePath(bd, part, row, l.Share, SharePath(bd, part, row))
						if !ok || got != root {
							t.Fatalf("VCOnly=%v ballot %d node %d: share (%d, %d) does not verify through its path", vcOnly, serial, i, part, row)
						}
					}
				}
			}
			if len(sigs) != p.NumVC {
				t.Fatalf("VCOnly=%v ballot %d: %d distinct root signatures, want %d", vcOnly, serial, len(sigs), p.NumVC)
			}
		}
	}
}

func TestMskSharesReconstructAndDecrypt(t *testing.T) {
	data, err := Setup(testParams())
	if err != nil {
		t.Fatal(err)
	}
	hv := data.Manifest.ReceiptThreshold()
	shares := make([]shamir.Share, 0, hv)
	for i := 0; i < hv; i++ {
		ms := data.VC[i].Msk
		share := shamir.Share{Index: ms.Index, Value: ms.Value}
		if !VerifyMskShare(data.Manifest.EAPublic, ms.Sig, data.Manifest.ElectionID, share) {
			t.Fatalf("msk share sig invalid for node %d", i)
		}
		shares = append(shares, share)
	}
	v, err := shamir.Combine(shares, hv)
	if err != nil {
		t.Fatal(err)
	}
	msk, err := shamir.ScalarToSecret(v)
	if err != nil {
		t.Fatal(err)
	}
	if !votecode.VerifyKey(data.BB.HMsk, msk, data.BB.SaltMsk[:]) {
		t.Fatal("reconstructed msk fails H_msk check")
	}
	// Decrypt every BB row and match against ballot codes.
	for _, bbb := range data.BB.Ballots {
		b := data.Ballots[bbb.Serial-1]
		for part := 0; part < 2; part++ {
			found := map[string]bool{}
			for _, row := range bbb.Parts[part] {
				code, err := votecode.Decrypt(msk, row.EncCode)
				if err != nil {
					t.Fatal(err)
				}
				found[string(code)] = true
			}
			for _, l := range b.Parts[part].Lines {
				if !found[string(l.VoteCode)] {
					t.Fatalf("ballot %d part %d: code missing from BB", b.Serial, part)
				}
			}
		}
	}
}

func TestTrusteeSharesOpenCommitments(t *testing.T) {
	data, err := Setup(testParams())
	if err != nil {
		t.Fatal(err)
	}
	man := &data.Manifest
	ck := man.CommitmentKey()
	ht := man.TrusteeThreshold
	bbb := data.BB.Ballots[0]
	for part := 0; part < 2; part++ {
		for rowIdx, row := range bbb.Parts[part] {
			m := len(row.Commitment)
			for col := 0; col < m; col++ {
				mShares := make([]shamir.Share, 0, ht)
				rShares := make([]shamir.Share, 0, ht)
				for ti := 0; ti < ht; ti++ {
					tr := data.Trustees[ti].Ballots[0].Parts[part][rowIdx]
					mShares = append(mShares, shamir.Share{Index: uint32(ti + 1), Value: tr.MShares[col]})
					rShares = append(rShares, shamir.Share{Index: uint32(ti + 1), Value: tr.RShares[col]})
				}
				mv, err := shamir.Combine(mShares, ht)
				if err != nil {
					t.Fatal(err)
				}
				rv, err := shamir.Combine(rShares, ht)
				if err != nil {
					t.Fatal(err)
				}
				if !ck.VerifyOpening(row.Commitment[col], mv, rv) {
					t.Fatalf("part %d row %d col %d: opening does not verify", part, rowIdx, col)
				}
			}
		}
	}
}

func TestTrusteeSharesFinalizeProofs(t *testing.T) {
	data, err := Setup(testParams())
	if err != nil {
		t.Fatal(err)
	}
	man := &data.Manifest
	ck := man.CommitmentKey()
	ht := man.TrusteeThreshold
	master := zkp.MasterChallenge(man.ElectionID, []byte{1, 0, 1})
	bbb := data.BB.Ballots[3]
	serial := bbb.Serial
	idx := make([]uint32, ht)
	for ti := range idx {
		idx[ti] = uint32(ti + 1)
	}
	lam, err := shamir.LagrangeCoefficients(idx)
	if err != nil {
		t.Fatal(err)
	}
	for part := 0; part < 2; part++ {
		for rowIdx, row := range bbb.Parts[part] {
			m := len(row.Commitment)
			for col := 0; col < m; col++ {
				c := zkp.DeriveChallenge(master, serial, uint8(part), rowIdx, col)
				finals := make([]zkp.BitFinal, ht)
				for ti := range finals {
					tr := data.Trustees[ti].Ballots[serial-1].Parts[part][rowIdx]
					finals[ti] = tr.BitCoeffs[col].Finalize(c)
				}
				fin := zkp.CombineBitFinals(lam, finals)
				if !zkp.VerifyBit(ck, row.Commitment[col], row.BitCommits[col], fin, c) {
					t.Fatalf("bit proof part %d row %d col %d fails", part, rowIdx, col)
				}
			}
			// Sum proof.
			c := zkp.DeriveChallenge(master, serial, uint8(part), rowIdx, zkp.SumProofCol)
			finals := make([]zkp.SumFinal, ht)
			for ti := range finals {
				tr := data.Trustees[ti].Ballots[serial-1].Parts[part][rowIdx]
				finals[ti] = tr.SumCoeffs.Finalize(c)
			}
			if !zkp.VerifySum(ck, row.Commitment, 1, row.SumCommit, zkp.CombineSumFinals(lam, finals), c) {
				t.Fatalf("sum proof part %d row %d fails", part, rowIdx)
			}
		}
	}
}

func TestSetupDeterministicWithSeed(t *testing.T) {
	p := testParams()
	d1, err := Setup(p)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Setup(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1.Ballots {
		for part := 0; part < 2; part++ {
			for j := range d1.Ballots[i].Parts[part].Lines {
				l1 := d1.Ballots[i].Parts[part].Lines[j]
				l2 := d2.Ballots[i].Parts[part].Lines[j]
				if !bytes.Equal(l1.VoteCode, l2.VoteCode) || !bytes.Equal(l1.Receipt, l2.Receipt) {
					t.Fatal("seeded setup not deterministic")
				}
			}
		}
	}
}

func TestSetupVCOnly(t *testing.T) {
	p := testParams()
	p.VCOnly = true
	data, err := Setup(p)
	if err != nil {
		t.Fatal(err)
	}
	if data.BB != nil || data.Trustees != nil {
		t.Fatal("VCOnly must skip BB and trustee payloads")
	}
	if len(data.VC) != p.NumVC || data.VC[0].Ballots[0] == nil {
		t.Fatal("VC payloads missing")
	}
}

func TestManifestOptionIndex(t *testing.T) {
	data, err := Setup(testParams())
	if err != nil {
		t.Fatal(err)
	}
	idx, err := data.Manifest.OptionIndex("beta")
	if err != nil || idx != 1 {
		t.Fatalf("idx=%d err=%v", idx, err)
	}
	if _, err := data.Manifest.OptionIndex("nope"); err == nil {
		t.Fatal("unknown option must fail")
	}
}

// BenchmarkSetupBallot is the EA's per-ballot cost on one core at the
// benchmark's election shape (four options, four VC nodes, three trustees).
// vc-only is a collect-* ballot: codes, receipt shares and the EA's
// signatures over them. full is an election-full ballot: the same plus the
// commitments and proof first moves of both parts and the trustee shares.
// `go test -bench SetupBallot -cpuprofile` gives the budget.
func BenchmarkSetupBallot(b *testing.B) {
	for _, bc := range []struct {
		name   string
		vcOnly bool
	}{{"vc-only", true}, {"full", false}} {
		b.Run(bc.name, func(b *testing.B) {
			p := testParams()
			p.Options = []string{"alpha", "beta", "gamma", "delta"}
			p.VCOnly = bc.vcOnly
			if err := p.Validate(); err != nil {
				b.Fatal(err)
			}
			_, gen, err := setupComponents(&p)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := gen.one(1); err != nil { // builds the commitment key's table
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gen.one(uint64(i%p.NumBallots) + 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ballots/s")
		})
	}
}

package zkp

import (
	"crypto/rand"
	"math/big"
	"testing"

	"ddemos/internal/crypto/elgamal"
	"ddemos/internal/crypto/group"
	"ddemos/internal/crypto/shamir"
)

var key = elgamal.DeriveCommitmentKey("zkp-test")

func challenge() *big.Int {
	master := MasterChallenge("zkp-test", []byte{0, 1, 1, 0})
	return DeriveChallenge(master, 1, 0, 0, 0)
}

func TestBitProofBothBranches(t *testing.T) {
	c := challenge()
	rnd := group.NewDRBG([]byte("both-branches"))
	for hot := 0; hot < 2; hot++ {
		row, err := ProveRow(key, 2, hot, rnd)
		if err != nil {
			t.Fatal(err)
		}
		if !key.VerifyVectorOpening(row.Commitment, row.Opening) {
			t.Fatalf("hot %d: opening rejected", hot)
		}
		for j, ct := range row.Commitment {
			if !VerifyBit(key, ct, row.BitCommits[j], row.BitCoeffs[j].Finalize(c), c) {
				t.Fatalf("hot %d: valid proof for element %d (bit %v) rejected", hot, j, row.Opening.Ms[j])
			}
		}
		if !VerifySum(key, row.Commitment, 1, row.SumCommit, row.SumCoeffs.Finalize(c), c) {
			t.Fatalf("hot %d: valid sum proof rejected", hot)
		}
	}
}

func TestBitProofRejectsNonBit(t *testing.T) {
	ct, r, _ := encryptRef(key, big.NewInt(2), rand.Reader)
	if _, _, err := newBitProofRef(key, ct, 2, r, rand.Reader); err == nil {
		t.Fatal("m=2 must be rejected by the prover")
	}
	// ProveRow places exactly one 1, so its only bad input is the position.
	for _, hot := range []int{-1, 3} {
		if _, err := ProveRow(key, 3, hot, rand.Reader); err == nil {
			t.Fatalf("hot index %d of 3 must be rejected", hot)
		}
	}
}

func TestBitProofSoundness(t *testing.T) {
	// A ciphertext of 2 cannot be proven: forge a proof by running the
	// honest prover with a lie and check verification fails.
	c := challenge()
	ct, r, _ := encryptRef(key, big.NewInt(2), rand.Reader)
	// Lie: claim it encrypts 1.
	com, cf, err := newBitProofRef(key, ct, 1, r, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	fin := cf.Finalize(c)
	if VerifyBit(key, ct, com, fin, c) {
		t.Fatal("proof for non-bit ciphertext verified")
	}
}

func TestBitProofWrongChallengeFails(t *testing.T) {
	c := challenge()
	ct, r, _ := encryptRef(key, big.NewInt(1), rand.Reader)
	com, cf, _ := newBitProofRef(key, ct, 1, r, rand.Reader)
	fin := cf.Finalize(c)
	other := group.AddScalar(c, big.NewInt(1))
	if VerifyBit(key, ct, com, fin, other) {
		t.Fatal("proof verified under wrong challenge")
	}
}

func TestBitProofTamperedFinalFails(t *testing.T) {
	c := challenge()
	ct, r, _ := encryptRef(key, big.NewInt(0), rand.Reader)
	com, cf, _ := newBitProofRef(key, ct, 0, r, rand.Reader)
	fin := cf.Finalize(c)

	bad := fin
	bad.Z0 = group.AddScalar(fin.Z0, big.NewInt(1))
	if VerifyBit(key, ct, com, bad, c) {
		t.Fatal("tampered z0 accepted")
	}
	bad = fin
	bad.C0 = group.AddScalar(fin.C0, big.NewInt(1))
	if VerifyBit(key, ct, com, bad, c) {
		t.Fatal("tampered c0 accepted")
	}
	if VerifyBit(key, ct, com, BitFinal{}, c) {
		t.Fatal("nil final accepted")
	}
}

func TestBitProofMismatchedCiphertextFails(t *testing.T) {
	c := challenge()
	ct1, r1, _ := encryptRef(key, big.NewInt(1), rand.Reader)
	ct2, _, _ := encryptRef(key, big.NewInt(1), rand.Reader)
	com, cf, _ := newBitProofRef(key, ct1, 1, r1, rand.Reader)
	fin := cf.Finalize(c)
	if VerifyBit(key, ct2, com, fin, c) {
		t.Fatal("proof transplanted to different ciphertext accepted")
	}
}

func TestSumProof(t *testing.T) {
	c := challenge()
	// Unit vector of length 4, hot position 2: sums to 1.
	cts, op, err := encryptUnitVectorRef(key, 4, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	rSum := new(big.Int)
	for _, r := range op.Rs {
		rSum = group.AddScalar(rSum, r)
	}
	com, cf, err := newSumProofRef(key, rSum, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	fin := cf.Finalize(c)
	if !VerifySum(key, cts, 1, com, fin, c) {
		t.Fatal("valid sum proof rejected")
	}
	if VerifySum(key, cts, 2, com, fin, c) {
		t.Fatal("sum proof for wrong k accepted")
	}
	bad := fin
	bad.Z = group.AddScalar(fin.Z, big.NewInt(1))
	if VerifySum(key, cts, 1, com, bad, c) {
		t.Fatal("tampered sum response accepted")
	}
	if VerifySum(key, nil, 1, com, fin, c) {
		t.Fatal("empty ciphertext vector accepted")
	}
}

func TestSumProofKSelections(t *testing.T) {
	// k-out-of-m extension: two hot positions, sum = 2.
	c := challenge()
	ct1, op1, _ := encryptUnitVectorRef(key, 4, 0, rand.Reader)
	ct2, op2, _ := encryptUnitVectorRef(key, 4, 3, rand.Reader)
	cts, err := ct1.Add(ct2)
	if err != nil {
		t.Fatal(err)
	}
	rSum := new(big.Int)
	for _, r := range append(op1.Rs, op2.Rs...) {
		rSum = group.AddScalar(rSum, r)
	}
	com, cf, _ := newSumProofRef(key, rSum, rand.Reader)
	fin := cf.Finalize(c)
	if !VerifySum(key, cts, 2, com, fin, c) {
		t.Fatal("k=2 sum proof rejected")
	}
}

func TestDistributedBitFinalization(t *testing.T) {
	// EA shares coefficients among 5 trustees, threshold 3. Any 3 trustees'
	// finalized shares must combine to a verifying final move.
	c := challenge()
	ct, r, _ := encryptRef(key, big.NewInt(1), rand.Reader)
	com, cf, _ := newBitProofRef(key, ct, 1, r, rand.Reader)

	shares, err := ShareBitCoeffs(cf, 3, 5, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var idx []uint32
	var finShares []BitFinal
	for _, i := range []int{4, 1, 2} { // arbitrary trustee subset
		idx = append(idx, uint32(i+1))
		finShares = append(finShares, shares[i].Finalize(c))
	}
	lam, err := shamir.LagrangeCoefficients(idx)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyBit(key, ct, com, CombineBitFinals(lam, finShares), c) {
		t.Fatal("distributed finalization did not reproduce a valid proof")
	}
	// Below the threshold the interpolation lands on some other value.
	lam2, err := shamir.LagrangeCoefficients(idx[:2])
	if err != nil {
		t.Fatal(err)
	}
	if VerifyBit(key, ct, com, CombineBitFinals(lam2, finShares[:2]), c) {
		t.Fatal("2-of-3 combination must not verify")
	}
}

func TestDistributedSumFinalization(t *testing.T) {
	c := challenge()
	cts, op, _ := encryptUnitVectorRef(key, 3, 1, rand.Reader)
	rSum := new(big.Int)
	for _, r := range op.Rs {
		rSum = group.AddScalar(rSum, r)
	}
	com, cf, _ := newSumProofRef(key, rSum, rand.Reader)
	shares, err := ShareSumCoeffs(cf, 2, 4, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	lam, err := shamir.LagrangeCoefficients([]uint32{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	fin := CombineSumFinals(lam, []SumFinal{shares[2].Finalize(c), shares[0].Finalize(c)})
	if !VerifySum(key, cts, 1, com, fin, c) {
		t.Fatal("distributed sum finalization failed")
	}
}

func TestChallengeDerivation(t *testing.T) {
	m1 := MasterChallenge("e", []byte{0, 1})
	m2 := MasterChallenge("e", []byte{0, 1})
	m3 := MasterChallenge("e", []byte{1, 1})
	m4 := MasterChallenge("f", []byte{0, 1})
	if string(m1) != string(m2) {
		t.Fatal("master challenge must be deterministic")
	}
	if string(m1) == string(m3) || string(m1) == string(m4) {
		t.Fatal("master challenge must depend on coins and election id")
	}
	c1 := DeriveChallenge(m1, 1, 0, 0, 0)
	c2 := DeriveChallenge(m1, 1, 0, 1, 0)
	c3 := DeriveChallenge(m1, 1, 1, 0, 0)
	c4 := DeriveChallenge(m1, 2, 0, 0, 0)
	if c1.Cmp(c2) == 0 || c1.Cmp(c3) == 0 || c1.Cmp(c4) == 0 {
		t.Fatal("per-proof challenges must be distinct across instances")
	}
}

// BenchmarkProveRow is one four-option ballot row: commitment, four bit
// proofs and the sum proof.
func BenchmarkProveRow(b *testing.B) {
	rng := group.NewDRBG([]byte("bench"))
	if _, err := ProveRow(key, 4, 0, rng); err != nil { // builds the key's table
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProveRow(key, 4, i%4, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyBit(b *testing.B) {
	c := challenge()
	ct, r, _ := encryptRef(key, big.NewInt(1), rand.Reader)
	com, cf, _ := newBitProofRef(key, ct, 1, r, rand.Reader)
	fin := cf.Finalize(c)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !VerifyBit(key, ct, com, fin, c) {
			b.Fatal("must verify")
		}
	}
}

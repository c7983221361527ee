// Package zkp implements the zero-knowledge proofs of ballot correctness
// from §III-B of the paper: Chaum–Pedersen proofs composed with Sigma-OR to
// show that every option-encoding ciphertext encrypts 0 or 1, and that each
// ballot part's encodings sum to exactly the allowed number of selections.
//
// The protocol is the three-move sigma protocol, split across the election
// exactly as the paper describes:
//
//  1. At setup the EA computes the first moves (commitments) and posts them
//     on the Bulletin Board.
//  2. The challenge is NOT Fiat–Shamir: it is extracted from the voters' A/B
//     part choices collected during the election (the voters' coins), giving
//     min-entropy θ when θ honest voters participate.
//  3. The final move is produced jointly by the trustees after the election.
//
// Step 3 works without interaction because every final-move value is an
// affine function α·c + β of the (public, post-election) challenge c. The EA
// secret-shares the coefficient pairs (α, β) among the trustees at setup;
// each trustee evaluates the affine form on its shares, and Lagrange
// combination of the results yields the final move. No trustee minority
// learns which OR branch was simulated — i.e., the content of any
// commitment.
package zkp

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/big"

	"ddemos/internal/crypto/elgamal"
	"ddemos/internal/crypto/group"
	"ddemos/internal/crypto/shamir"
)

// BitCommit is the first move of the 0-or-1 OR proof for one ciphertext.
// (T0A, T0B) commits for the "encrypts 0" branch, (T1A, T1B) for "encrypts 1".
type BitCommit struct {
	T0A, T0B group.Point
	T1A, T1B group.Point
}

// BitCoeffs are the affine coefficients of the final move as functions of
// the challenge c: each output value equals A*c + B (mod q). They contain
// the witness and MUST stay secret; the EA secret-shares them among the
// trustees and then destroys them.
type BitCoeffs struct {
	AC0, BC0 *big.Int // c0 = AC0*c + BC0
	AC1, BC1 *big.Int // c1 = AC1*c + BC1
	AZ0, BZ0 *big.Int // z0 = AZ0*c + BZ0
	AZ1, BZ1 *big.Int // z1 = AZ1*c + BZ1
}

// BitFinal is the final move of the OR proof: per-branch challenges and
// responses. Valid iff C0+C1 == c and both branch verification equations
// hold.
type BitFinal struct {
	C0, C1, Z0, Z1 *big.Int
}

// NewBitProofFor creates the first move and coefficients for ciphertext ct
// encrypting bit m (0 or 1) with randomness r under key. The real branch is
// proven honestly; the other branch is simulated backwards from a random
// (challenge, response) pair chosen at setup.
func NewBitProofFor(key elgamal.CommitmentKey, ct elgamal.Ciphertext, m int, r *big.Int, rnd io.Reader) (BitCommit, BitCoeffs, error) {
	if m != 0 && m != 1 {
		return BitCommit{}, BitCoeffs{}, fmt.Errorf("zkp: message %d is not a bit", m)
	}
	w, err := group.RandScalar(rnd)
	if err != nil {
		return BitCommit{}, BitCoeffs{}, err
	}
	cSim, err := group.RandScalar(rnd)
	if err != nil {
		return BitCommit{}, BitCoeffs{}, err
	}
	zSim, err := group.RandScalar(rnd)
	if err != nil {
		return BitCommit{}, BitCoeffs{}, err
	}

	// Statement second points: branch 0 proves (A, B) = (rG, rP);
	// branch 1 proves (A, B-G) = (rG, rP).
	b0 := ct.B
	b1 := ct.B.Sub(group.Base())

	realTA := group.BaseMul(w)
	realTB := key.P.Mul(w)

	var com BitCommit
	var cf BitCoeffs
	zero := new(big.Int)
	one := big.NewInt(1)
	// β coefficient of the real response: z = w + (c - cSim)*r
	//   = r*c + (w - cSim*r)  -> α = r, β = w - cSim*r.
	alphaReal := new(big.Int).Set(r)
	betaReal := group.SubScalar(w, group.MulScalar(cSim, r))

	if m == 0 {
		// Real branch 0, simulated branch 1.
		simTA := group.BaseMul(zSim).Sub(ct.A.Mul(cSim))
		simTB := key.P.Mul(zSim).Sub(b1.Mul(cSim))
		com = BitCommit{T0A: realTA, T0B: realTB, T1A: simTA, T1B: simTB}
		cf = BitCoeffs{
			AC0: one, BC0: group.NegScalar(cSim), // c0 = c - cSim
			AC1: zero, BC1: cSim, // c1 = cSim
			AZ0: alphaReal, BZ0: betaReal,
			AZ1: zero, BZ1: zSim,
		}
	} else {
		// Real branch 1, simulated branch 0.
		simTA := group.BaseMul(zSim).Sub(ct.A.Mul(cSim))
		simTB := key.P.Mul(zSim).Sub(b0.Mul(cSim))
		com = BitCommit{T0A: simTA, T0B: simTB, T1A: realTA, T1B: realTB}
		cf = BitCoeffs{
			AC0: zero, BC0: cSim,
			AC1: one, BC1: group.NegScalar(cSim),
			AZ0: zero, BZ0: zSim,
			AZ1: alphaReal, BZ1: betaReal,
		}
	}
	return com, cf, nil
}

// Finalize evaluates the affine final move at challenge c. It works equally
// on the true coefficients (producing the true final move) and on secret
// shares of them (producing a share of the final move).
func (cf BitCoeffs) Finalize(c *big.Int) BitFinal {
	eval := func(a, b *big.Int) *big.Int { return group.AddScalar(group.MulScalar(a, c), b) }
	return BitFinal{
		C0: eval(cf.AC0, cf.BC0),
		C1: eval(cf.AC1, cf.BC1),
		Z0: eval(cf.AZ0, cf.BZ0),
		Z1: eval(cf.AZ1, cf.BZ1),
	}
}

// VerifyBit checks a completed 0-or-1 proof for ct under challenge c.
func VerifyBit(key elgamal.CommitmentKey, ct elgamal.Ciphertext, com BitCommit, fin BitFinal, c *big.Int) bool {
	if fin.C0 == nil || fin.C1 == nil || fin.Z0 == nil || fin.Z1 == nil {
		return false
	}
	if group.AddScalar(fin.C0, fin.C1).Cmp(new(big.Int).Mod(c, group.Order())) != 0 {
		return false
	}
	b0 := ct.B
	b1 := ct.B.Sub(group.Base())
	// Branch 0: z0*G == T0A + c0*A ; z0*P == T0B + c0*B.
	if !group.BaseMul(fin.Z0).Equal(com.T0A.Add(ct.A.Mul(fin.C0))) {
		return false
	}
	if !key.P.Mul(fin.Z0).Equal(com.T0B.Add(b0.Mul(fin.C0))) {
		return false
	}
	// Branch 1: z1*G == T1A + c1*A ; z1*P == T1B + c1*(B-G).
	if !group.BaseMul(fin.Z1).Equal(com.T1A.Add(ct.A.Mul(fin.C1))) {
		return false
	}
	if !key.P.Mul(fin.Z1).Equal(com.T1B.Add(b1.Mul(fin.C1))) {
		return false
	}
	return true
}

// SumCommit is the first move of the Chaum–Pedersen proof that a ballot
// part's encodings sum to exactly k selections.
type SumCommit struct {
	TA, TB group.Point
}

// SumCoeffs are the affine coefficients of the sum proof response:
// z = A*c + B.
type SumCoeffs struct {
	A, B *big.Int
}

// SumFinal is the response of the sum proof.
type SumFinal struct {
	Z *big.Int
}

// NewSumProof proves that the component-wise sum of a part's ciphertexts is
// an encryption of k (the number of selections) — equivalently that
// (ΣA, ΣB - k*G) is a DDH tuple with witness rSum = Σ randomness.
func NewSumProof(key elgamal.CommitmentKey, rSum *big.Int, rnd io.Reader) (SumCommit, SumCoeffs, error) {
	w, err := group.RandScalar(rnd)
	if err != nil {
		return SumCommit{}, SumCoeffs{}, err
	}
	return SumCommit{TA: group.BaseMul(w), TB: key.P.Mul(w)},
		SumCoeffs{A: new(big.Int).Set(rSum), B: w}, nil
}

// Finalize evaluates the sum-proof response at challenge c (works on shares
// as well, like BitCoeffs.Finalize).
func (cf SumCoeffs) Finalize(c *big.Int) SumFinal {
	return SumFinal{Z: group.AddScalar(group.MulScalar(cf.A, c), cf.B)}
}

// VerifySum checks a completed sum proof: cts must element-wise sum to an
// encryption of k.
func VerifySum(key elgamal.CommitmentKey, cts elgamal.VectorCiphertext, k int, com SumCommit, fin SumFinal, c *big.Int) bool {
	if fin.Z == nil || len(cts) == 0 {
		return false
	}
	sum := cts[0]
	for _, ct := range cts[1:] {
		sum = sum.Add(ct)
	}
	sumA := sum.A
	sumB := sum.B.Sub(group.BaseMul(big.NewInt(int64(k))))
	if !group.BaseMul(fin.Z).Equal(com.TA.Add(sumA.Mul(c))) {
		return false
	}
	if !key.P.Mul(fin.Z).Equal(com.TB.Add(sumB.Mul(c))) {
		return false
	}
	return true
}

// --- Distributed finalization -------------------------------------------

// ShareBitCoeffs secret-shares the eight coefficient scalars with threshold
// t among n trustees. Shares[i] belongs to trustee i+1 (share index i+1).
func ShareBitCoeffs(cf BitCoeffs, t, n int, rnd io.Reader) ([]BitCoeffs, error) {
	fields := []*big.Int{cf.AC0, cf.BC0, cf.AC1, cf.BC1, cf.AZ0, cf.BZ0, cf.AZ1, cf.BZ1}
	sharesPer := make([][]shamir.Share, len(fields))
	for i, v := range fields {
		s, err := shamir.Split(new(big.Int).Mod(v, group.Order()), t, n, rnd)
		if err != nil {
			return nil, err
		}
		sharesPer[i] = s
	}
	out := make([]BitCoeffs, n)
	for j := 0; j < n; j++ {
		out[j] = BitCoeffs{
			AC0: sharesPer[0][j].Value, BC0: sharesPer[1][j].Value,
			AC1: sharesPer[2][j].Value, BC1: sharesPer[3][j].Value,
			AZ0: sharesPer[4][j].Value, BZ0: sharesPer[5][j].Value,
			AZ1: sharesPer[6][j].Value, BZ1: sharesPer[7][j].Value,
		}
	}
	return out, nil
}

// CombineBitFinals reconstructs the true final move from the trustees'
// shares of it, given the Lagrange coefficients of their share indices
// (shamir.LagrangeCoefficients; one coefficient per share).
func CombineBitFinals(lam []*big.Int, shares []BitFinal) BitFinal {
	field := func(get func(*BitFinal) *big.Int) *big.Int {
		vals := make([]*big.Int, len(shares))
		for i := range shares {
			vals[i] = get(&shares[i])
		}
		return shamir.Interpolate(lam, vals)
	}
	return BitFinal{
		C0: field(func(f *BitFinal) *big.Int { return f.C0 }),
		C1: field(func(f *BitFinal) *big.Int { return f.C1 }),
		Z0: field(func(f *BitFinal) *big.Int { return f.Z0 }),
		Z1: field(func(f *BitFinal) *big.Int { return f.Z1 }),
	}
}

// ShareSumCoeffs secret-shares the sum-proof coefficients.
func ShareSumCoeffs(cf SumCoeffs, t, n int, rnd io.Reader) ([]SumCoeffs, error) {
	sa, err := shamir.Split(new(big.Int).Mod(cf.A, group.Order()), t, n, rnd)
	if err != nil {
		return nil, err
	}
	sb, err := shamir.Split(new(big.Int).Mod(cf.B, group.Order()), t, n, rnd)
	if err != nil {
		return nil, err
	}
	out := make([]SumCoeffs, n)
	for j := 0; j < n; j++ {
		out[j] = SumCoeffs{A: sa[j].Value, B: sb[j].Value}
	}
	return out, nil
}

// CombineSumFinals reconstructs the sum-proof response from shares, as
// CombineBitFinals does for a bit proof.
func CombineSumFinals(lam []*big.Int, shares []SumFinal) SumFinal {
	vals := make([]*big.Int, len(shares))
	for i := range shares {
		vals[i] = shares[i].Z
	}
	return SumFinal{Z: shamir.Interpolate(lam, vals)}
}

// --- Voter-coin challenge derivation -------------------------------------

// MasterChallenge condenses the voters' coins (one byte per voted ballot in
// serial order: 0 for part A, 1 for part B) into the election challenge
// seed. With θ honest voters the coins have min-entropy θ, which bounds the
// soundness error by 2^-θ (§IV-C of the paper).
func MasterChallenge(electionID string, coins []byte) []byte {
	sum := group.HashToScalar("ddemos/v1/master-challenge", []byte(electionID), coins)
	return group.ScalarBytes(sum)
}

// DeriveChallenge expands the master challenge into the per-proof challenge
// for a specific (serial, part, row, col) proof instance: row is the
// position of the commitment on the shuffled BB list, col the ciphertext
// position within the commitment vector (or SumProofCol for the row's
// sum-is-one proof).
func DeriveChallenge(master []byte, serial uint64, part uint8, row, col int) *big.Int {
	var buf [17]byte
	binary.BigEndian.PutUint64(buf[:8], serial)
	buf[8] = part
	binary.BigEndian.PutUint32(buf[9:13], uint32(row)) //nolint:gosec // row is small
	binary.BigEndian.PutUint32(buf[13:], uint32(col))  //nolint:gosec // col is small
	return group.HashToScalar("ddemos/v1/proof-challenge", master, buf[:])
}

// SumProofCol is the pseudo-column used to derive the challenge for a
// commitment's sum-is-one proof.
const SumProofCol = 0xffffff

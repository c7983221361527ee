package zkp

import (
	"bytes"
	"fmt"
	"io"
	"math/big"
	"testing"

	"ddemos/internal/crypto/elgamal"
	"ddemos/internal/crypto/group"
)

// The reference prover: the affine, per-element construction ProveRow
// replaced, kept as the differential oracle. Each ciphertext is encrypted
// on its own, each bit proof multiplies the ciphertext it was handed, and
// the sum proof is a separate call. It reads rnd in the order ProveRow
// must reproduce.

func encryptRef(key elgamal.CommitmentKey, m *big.Int, rnd io.Reader) (elgamal.Ciphertext, *big.Int, error) {
	r, err := group.RandScalar(rnd)
	if err != nil {
		return elgamal.Ciphertext{}, nil, err
	}
	return key.EncryptWith(m, r), r, nil
}

func encryptUnitVectorRef(key elgamal.CommitmentKey, m, hot int, rnd io.Reader) (elgamal.VectorCiphertext, elgamal.VectorOpening, error) {
	cts := make(elgamal.VectorCiphertext, m)
	op := elgamal.VectorOpening{Ms: make([]*big.Int, m), Rs: make([]*big.Int, m)}
	for j := 0; j < m; j++ {
		msg := big.NewInt(0)
		if j == hot {
			msg = big.NewInt(1)
		}
		ct, r, err := encryptRef(key, msg, rnd)
		if err != nil {
			return nil, elgamal.VectorOpening{}, err
		}
		cts[j], op.Ms[j], op.Rs[j] = ct, msg, r
	}
	return cts, op, nil
}

// newBitProofRef creates the first move and coefficients for ciphertext ct
// encrypting bit m with randomness r. The real branch is proven honestly;
// the other is simulated backwards from a random (challenge, response).
func newBitProofRef(key elgamal.CommitmentKey, ct elgamal.Ciphertext, m int, r *big.Int, rnd io.Reader) (BitCommit, BitCoeffs, error) {
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

	zero := new(big.Int)
	one := big.NewInt(1)
	// z = w + (c - cSim)*r = r*c + (w - cSim*r).
	alphaReal := new(big.Int).Set(r)
	betaReal := group.SubScalar(w, group.MulScalar(cSim, r))

	if m == 0 {
		simTA := group.BaseMul(zSim).Sub(ct.A.Mul(cSim))
		simTB := key.P.Mul(zSim).Sub(b1.Mul(cSim))
		return BitCommit{T0A: realTA, T0B: realTB, T1A: simTA, T1B: simTB}, BitCoeffs{
			AC0: one, BC0: group.NegScalar(cSim),
			AC1: zero, BC1: cSim,
			AZ0: alphaReal, BZ0: betaReal,
			AZ1: zero, BZ1: zSim,
		}, nil
	}
	simTA := group.BaseMul(zSim).Sub(ct.A.Mul(cSim))
	simTB := key.P.Mul(zSim).Sub(b0.Mul(cSim))
	return BitCommit{T0A: simTA, T0B: simTB, T1A: realTA, T1B: realTB}, BitCoeffs{
		AC0: zero, BC0: cSim,
		AC1: one, BC1: group.NegScalar(cSim),
		AZ0: zero, BZ0: zSim,
		AZ1: alphaReal, BZ1: betaReal,
	}, nil
}

// newSumProofRef proves that a part's ciphertexts, whose randomness sums
// to rSum, sum to an encryption of k.
func newSumProofRef(key elgamal.CommitmentKey, rSum *big.Int, rnd io.Reader) (SumCommit, SumCoeffs, error) {
	w, err := group.RandScalar(rnd)
	if err != nil {
		return SumCommit{}, SumCoeffs{}, err
	}
	return SumCommit{TA: group.BaseMul(w), TB: key.P.Mul(w)},
		SumCoeffs{A: new(big.Int).Set(rSum), B: w}, nil
}

// proveRowRef is ProveRow built from the reference pieces, in the order the
// EA used to call them.
func proveRowRef(key elgamal.CommitmentKey, m, hot int, rnd io.Reader) (Row, error) {
	cts, op, err := encryptUnitVectorRef(key, m, hot, rnd)
	if err != nil {
		return Row{}, err
	}
	row := Row{Commitment: cts, Opening: op, BitCommits: make([]BitCommit, m), BitCoeffs: make([]BitCoeffs, m)}
	rSum := new(big.Int)
	for j := 0; j < m; j++ {
		if row.BitCommits[j], row.BitCoeffs[j], err = newBitProofRef(key, cts[j], int(op.Ms[j].Int64()), op.Rs[j], rnd); err != nil {
			return Row{}, err
		}
		rSum = group.AddScalar(rSum, op.Rs[j])
	}
	row.SumCommit, row.SumCoeffs, err = newSumProofRef(key, rSum, rnd)
	return row, err
}

// rowBytes is every value of a row in a fixed layout.
func rowBytes(r Row) []byte {
	var b bytes.Buffer
	pt := func(ps ...group.Point) {
		for _, p := range ps {
			b.Write(p.Bytes())
		}
	}
	sc := func(ks ...*big.Int) {
		for _, k := range ks {
			b.Write(group.ScalarBytes(k))
		}
	}
	for j := range r.Commitment {
		b.Write(r.Commitment[j].Bytes())
		sc(r.Opening.Ms[j], r.Opening.Rs[j])
		c := r.BitCommits[j]
		pt(c.T0A, c.T0B, c.T1A, c.T1B)
		f := r.BitCoeffs[j]
		sc(f.AC0, f.BC0, f.AC1, f.BC1, f.AZ0, f.BZ0, f.AZ1, f.BZ1)
	}
	pt(r.SumCommit.TA, r.SumCommit.TB)
	sc(r.SumCoeffs.A, r.SumCoeffs.B)
	return b.Bytes()
}

// TestProveRowMatchesReference: from the same seed, ProveRow and the
// reference prover produce the same row, byte for byte, for every hot
// position across several vector lengths.
func TestProveRowMatchesReference(t *testing.T) {
	const rows = 200
	ms := []int{1, 2, 4, 10}
	for i := 0; i < rows; i++ {
		m := ms[i%len(ms)]
		hot := i / len(ms) % m
		seed := []byte(fmt.Sprintf("prove-row-%d", i))
		got, err := ProveRow(key, m, hot, group.NewDRBG(seed))
		if err != nil {
			t.Fatal(err)
		}
		want, err := proveRowRef(key, m, hot, group.NewDRBG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rowBytes(got), rowBytes(want)) {
			t.Fatalf("row %d (m=%d, hot=%d): ProveRow differs from the reference prover", i, m, hot)
		}
	}
}

package zkp

import (
	"crypto/subtle"
	"fmt"
	"io"
	"math/big"

	"ddemos/internal/crypto/elgamal"
	"ddemos/internal/crypto/group"
)

// Row is one ballot row as the EA commits to it: the commitment to a unit
// vector, its opening, and the first moves and final-move coefficients of
// the row's proofs (one 0-or-1 proof per element, one sum-is-one proof).
// The coefficients and the opening are secret; the EA shares them among
// the trustees and destroys them.
type Row struct {
	Commitment elgamal.VectorCiphertext
	Opening    elgamal.VectorOpening
	BitCommits []BitCommit
	BitCoeffs  []BitCoeffs
	SumCommit  SumCommit
	SumCoeffs  SumCoeffs
}

// ProveRow commits to the unit vector e_hot of length m and proves it. It
// reads its scalars from rnd in a fixed order — every element's randomness
// r, then every element's (w, cSim, zSim), then the sum proof's nonce — so
// a seeded setup is reproducible.
//
// Which option a row encodes is the secret, so every element runs the same
// operations whatever its bit. B = r·P + bit·G adds G under a mask
// (elgamal.EncryptWith's BaseMul(m) returns early for m = 0 and its Add
// skips the identity, so the hot element would cost one more
// multiplication). The real and simulated branches trade places by masked
// swaps of their scalars, not by branching on the bit. The simulated
// branch is computed in the exponent instead of from the ciphertext just
// built: with s = zSim − cSim·r its first move is (s·G, s·P ± cSim·G). All
// P-multiples go through the key's constant-time table and share one
// inversion. The mod-q scalar arithmetic (math/big) is the same sequence of
// calls for either bit.
func ProveRow(key elgamal.CommitmentKey, m, hot int, rnd io.Reader) (Row, error) {
	if hot < 0 || hot >= m {
		return Row{}, fmt.Errorf("zkp: hot index %d out of range [0,%d)", hot, m)
	}
	scalars := make([]*big.Int, 4*m+1)
	for i := range scalars {
		var err error
		if scalars[i], err = group.RandScalar(rnd); err != nil {
			return Row{}, err
		}
	}
	rs, nonces := scalars[:m], scalars[m:]

	g := group.Base()
	one, zero := big.NewInt(1), new(big.Int)
	row := Row{
		Commitment: make(elgamal.VectorCiphertext, m),
		Opening:    elgamal.VectorOpening{Ms: make([]*big.Int, m), Rs: rs},
		BitCommits: make([]BitCommit, m),
		BitCoeffs:  make([]BitCoeffs, m),
	}
	terms := make([]group.Term, 0, 3*m+1)
	rSum := new(big.Int)
	for j, r := range rs {
		w, cSim, zSim := nonces[3*j], nonces[3*j+1], nonces[3*j+2]
		bit := subtle.ConstantTimeEq(int32(j), int32(hot)) //nolint:gosec // j, hot < m, a handful of options
		// Branch `bit` is real (nonce w); the other is simulated (exponent
		// s). A simulated branch 0 (bit 1) proves (A, B) and subtracts
		// cSim·G; a simulated branch 1 (bit 0) proves (A, B − G) and adds it.
		s := group.SubScalar(zSim, group.MulScalar(cSim, r))
		k0, k1 := ctSwap(w, s, bit)
		cG := group.BaseMul(cSim)
		row.Commitment[j].A = group.BaseMul(r)
		row.BitCommits[j].T0A = group.BaseMul(k0)
		row.BitCommits[j].T1A = group.BaseMul(k1)
		terms = append(terms,
			group.Term{K: r, Add: g, Mask: bit},         // B
			group.Term{K: k0, Add: cG.Neg(), Mask: bit}, // T0B
			group.Term{K: k1, Add: cG, Mask: 1 - bit},   // T1B
		)
		// Real branch: c = challenge − cSim and z = r·c + (w − cSim·r).
		// Simulated branch: c = cSim and z = zSim.
		var cf BitCoeffs
		cf.AC0, cf.AC1 = ctSwap(one, zero, bit)
		cf.BC0, cf.BC1 = ctSwap(group.NegScalar(cSim), cSim, bit)
		cf.AZ0, cf.AZ1 = ctSwap(r, zero, bit)
		cf.BZ0, cf.BZ1 = ctSwap(group.SubScalar(w, group.MulScalar(cSim, r)), zSim, bit)
		row.BitCoeffs[j] = cf
		row.Opening.Ms[j] = big.NewInt(int64(bit))
		rSum = group.AddScalar(rSum, r)
	}
	// Sum-is-one: (ΣA, ΣB − G) is a DDH tuple with witness Σr.
	wSum := nonces[3*m]
	row.SumCommit.TA = group.BaseMul(wSum)
	row.SumCoeffs = SumCoeffs{A: rSum, B: wSum}
	terms = append(terms, group.Term{K: wSum})

	out := make([]group.Point, len(terms))
	key.FixedBase().MulAdd(out, terms)
	for j := range rs {
		row.Commitment[j].B = out[3*j]
		row.BitCommits[j].T0B = out[3*j+1]
		row.BitCommits[j].T1B = out[3*j+2]
	}
	row.SumCommit.TB = out[3*m]
	return row, nil
}

// ctSwap returns (a, b) for bit 0 and (b, a) for bit 1, exchanging the
// scalars' 32-byte encodings under a mask rather than branching on bit.
// Both must lie in [0, q).
func ctSwap(a, b *big.Int, bit int) (*big.Int, *big.Int) {
	var x, y [32]byte
	a.FillBytes(x[:])
	b.FillBytes(y[:])
	mask := -byte(bit)
	for i := range x {
		d := mask & (x[i] ^ y[i])
		x[i] ^= d
		y[i] ^= d
	}
	return new(big.Int).SetBytes(x[:]), new(big.Int).SetBytes(y[:])
}

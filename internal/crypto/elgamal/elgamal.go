// Package elgamal implements lifted (exponential) ElGamal encryption over
// P-256, used as the additively homomorphic option-encoding commitment
// scheme of the paper (§III-B): the i-th election option is encoded as the
// unit vector e_i and committed to as a vector of ciphertexts that
// element-wise encrypt that vector.
//
// A ciphertext for message m with randomness r under key P is
//
//	(A, B) = (r*G, m*G + r*P).
//
// Used as a commitment, nobody ever decrypts: an opening is the pair (m, r)
// and verification is re-encryption. Ciphertexts add component-wise, so the
// sum of the commitments of the cast votes commits to the element-wise sum
// of the encoded unit vectors — exactly the tally.
//
// The commitment key P is derived by hashing, so no party knows its discrete
// log and the scheme is binding even against the Election Authority.
package elgamal

import (
	"errors"
	"fmt"
	"math/big"

	"ddemos/internal/crypto/group"
)

// CommitmentKey is the public ElGamal key P used for option-encoding
// commitments.
type CommitmentKey struct {
	P group.Point

	table *group.FixedBase // built on the first FixedBase call, shared by copies
}

// DeriveCommitmentKey deterministically derives the commitment key for an
// election. Hash derivation guarantees nobody (including the EA) knows
// log_G(P), which makes commitments binding.
func DeriveCommitmentKey(electionID string) CommitmentKey {
	p := group.HashToPoint("ddemos/v1/elgamal-key", []byte(electionID))
	return CommitmentKey{P: p, table: group.NewFixedBase(p)}
}

// FixedBase returns the constant-time multiplication table for P, which
// the prover (zkp.ProveRow) multiplies by secret scalars. The table is
// built on first use and shared by every copy of a derived key; a key not
// made by DeriveCommitmentKey gets a fresh table on each call.
func (k CommitmentKey) FixedBase() *group.FixedBase {
	if k.table == nil {
		return group.NewFixedBase(k.P)
	}
	return k.table
}

// Ciphertext is a lifted ElGamal ciphertext (A, B).
type Ciphertext struct {
	A, B group.Point
}

// EncryptWith produces the deterministic ciphertext for message m and
// randomness r. It is variable-time (BaseMul skips m = 0 and Add skips the
// identity), so it serves openings that are public by then; the EA's
// secret commitments come from zkp.ProveRow.
func (k CommitmentKey) EncryptWith(m, r *big.Int) Ciphertext {
	return Ciphertext{
		A: group.BaseMul(r),
		B: group.BaseMul(m).Add(k.P.Mul(r)),
	}
}

// VerifyOpening checks that ct is an encryption of (m, r).
func (k CommitmentKey) VerifyOpening(ct Ciphertext, m, r *big.Int) bool {
	want := k.EncryptWith(m, r)
	return ct.A.Equal(want.A) && ct.B.Equal(want.B)
}

// Add returns the component-wise sum of two ciphertexts, an encryption of
// the sum of the messages under the sum of the randomness.
func (c Ciphertext) Add(o Ciphertext) Ciphertext {
	return Ciphertext{A: c.A.Add(o.A), B: c.B.Add(o.B)}
}

// Equal reports ciphertext equality.
func (c Ciphertext) Equal(o Ciphertext) bool {
	return c.A.Equal(o.A) && c.B.Equal(o.B)
}

// Bytes returns a canonical encoding (66 bytes: both compressed points).
func (c Ciphertext) Bytes() []byte {
	out := make([]byte, 0, 66)
	out = append(out, c.A.Bytes()...)
	out = append(out, c.B.Bytes()...)
	return out
}

// DecodeCiphertext parses the encoding produced by Bytes. Identity points
// (1 byte) never appear in honest ciphertexts, so only the 33+33 layout is
// accepted.
func DecodeCiphertext(b []byte) (Ciphertext, error) {
	if len(b) != 66 {
		return Ciphertext{}, fmt.Errorf("elgamal: ciphertext encoding must be 66 bytes, got %d", len(b))
	}
	a, err := group.DecodePoint(b[:33])
	if err != nil {
		return Ciphertext{}, err
	}
	bb, err := group.DecodePoint(b[33:])
	if err != nil {
		return Ciphertext{}, err
	}
	return Ciphertext{A: a, B: bb}, nil
}

// VectorCiphertext commits to an integer vector (element-wise encryption).
// In D-DEMOS the vector is a unit vector e_i encoding option i.
type VectorCiphertext []Ciphertext

// VectorOpening is the opening of a VectorCiphertext.
type VectorOpening struct {
	Ms []*big.Int // messages
	Rs []*big.Int // randomness
}

// Add returns the component-wise sum of two vector ciphertexts.
func (v VectorCiphertext) Add(o VectorCiphertext) (VectorCiphertext, error) {
	if len(v) != len(o) {
		return nil, errors.New("elgamal: vector length mismatch")
	}
	out := make(VectorCiphertext, len(v))
	for i := range v {
		out[i] = v[i].Add(o[i])
	}
	return out, nil
}

// VerifyVectorOpening checks an opening against a vector ciphertext.
func (k CommitmentKey) VerifyVectorOpening(v VectorCiphertext, op VectorOpening) bool {
	if len(v) != len(op.Ms) || len(v) != len(op.Rs) {
		return false
	}
	for i := range v {
		if !k.VerifyOpening(v[i], op.Ms[i], op.Rs[i]) {
			return false
		}
	}
	return true
}

// HotIndex returns the position of the single 1 in an opened unit vector, or
// an error if the opening is not a unit vector.
func (op VectorOpening) HotIndex() (int, error) {
	hot := -1
	one := big.NewInt(1)
	for i, m := range op.Ms {
		switch {
		case m.Sign() == 0:
		case m.Cmp(one) == 0:
			if hot != -1 {
				return 0, errors.New("elgamal: more than one hot position")
			}
			hot = i
		default:
			return 0, fmt.Errorf("elgamal: message at %d is not a bit", i)
		}
	}
	if hot == -1 {
		return 0, errors.New("elgamal: all-zero vector")
	}
	return hot, nil
}

// SumOpenings adds openings component-wise (the opening of the sum of the
// corresponding ciphertexts).
func SumOpenings(ops ...VectorOpening) (VectorOpening, error) {
	if len(ops) == 0 {
		return VectorOpening{}, errors.New("elgamal: no openings")
	}
	m := len(ops[0].Ms)
	out := VectorOpening{Ms: make([]*big.Int, m), Rs: make([]*big.Int, m)}
	for j := 0; j < m; j++ {
		out.Ms[j] = new(big.Int)
		out.Rs[j] = new(big.Int)
	}
	for _, op := range ops {
		if len(op.Ms) != m || len(op.Rs) != m {
			return VectorOpening{}, errors.New("elgamal: opening length mismatch")
		}
		for j := 0; j < m; j++ {
			out.Ms[j] = group.AddScalar(out.Ms[j], op.Ms[j])
			out.Rs[j] = group.AddScalar(out.Rs[j], op.Rs[j])
		}
	}
	return out, nil
}

// Package shamir implements Shamir secret sharing over the P-256 scalar
// field Z_q, the building block the paper uses for receipt shares, master-key
// shares and trustee shares.
//
// A (t, n) sharing splits a secret into n shares so that any t reconstruct
// the secret and any t-1 reveal nothing (information-theoretically). Shares
// are additively homomorphic: adding corresponding shares of two secrets
// yields shares of the sum, which is what lets trustees tally
// homomorphically (§III-B of the paper).
//
// The paper's implementation (§V) realizes "verifiable secret sharing with
// honest dealer" by having the Election Authority sign every share; the
// signing lives in package ea so this package stays a pure field-arithmetic
// substrate.
package shamir

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"ddemos/internal/crypto/group"
)

// Share is one point (x=Index, y=Value) on the dealing polynomial.
// Index is 1-based; index 0 would expose the secret itself.
type Share struct {
	Index uint32
	Value *big.Int
}

var (
	// ErrThreshold indicates an invalid (t, n) combination.
	ErrThreshold = errors.New("shamir: threshold must satisfy 1 <= t <= n")
	// ErrTooFewShares indicates reconstruction was attempted with fewer
	// shares than the threshold used at dealing time.
	ErrTooFewShares = errors.New("shamir: not enough shares")
	// ErrDuplicateShare indicates two shares with the same index.
	ErrDuplicateShare = errors.New("shamir: duplicate share index")
)

// Split deals secret into n shares with reconstruction threshold t, using
// randomness from rnd. The secret must be in [0, q).
func Split(secret *big.Int, t, n int, rnd io.Reader) ([]Share, error) {
	if t < 1 || t > n {
		return nil, fmt.Errorf("%w: t=%d n=%d", ErrThreshold, t, n)
	}
	if secret.Sign() < 0 || secret.Cmp(group.Order()) >= 0 {
		return nil, errors.New("shamir: secret out of field range")
	}
	// polynomial p(x) = secret + a1*x + ... + a_{t-1}*x^{t-1}
	coeffs := make([]*big.Int, t)
	coeffs[0] = new(big.Int).Set(secret)
	for i := 1; i < t; i++ {
		c, err := group.RandScalar(rnd)
		if err != nil {
			return nil, err
		}
		coeffs[i] = c
	}
	shares := make([]Share, n)
	for i := 1; i <= n; i++ {
		shares[i-1] = Share{Index: uint32(i), Value: Eval(coeffs, uint32(i))}
	}
	return shares, nil
}

// Eval evaluates the polynomial given by coeffs (constant term first) at x,
// mod q, via Horner's rule.
func Eval(coeffs []*big.Int, x uint32) *big.Int {
	xx := big.NewInt(int64(x))
	acc := new(big.Int)
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = group.AddScalar(group.MulScalar(acc, xx), coeffs[i])
	}
	return acc
}

// Combine reconstructs the secret from at least t shares via Lagrange
// interpolation at x=0. The first t shares are used; callers should pass
// exactly the shares they trust.
func Combine(shares []Share, t int) (*big.Int, error) {
	if len(shares) < t {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrTooFewShares, len(shares), t)
	}
	indices := make([]uint32, t)
	values := make([]*big.Int, t)
	for i, s := range shares[:t] {
		indices[i], values[i] = s.Index, s.Value
	}
	lam, err := LagrangeCoefficients(indices)
	if err != nil {
		return nil, err
	}
	return Interpolate(lam, values), nil
}

// LagrangeCoefficients returns the interpolation weights λ_i at x=0 for the
// given share indices, so that secret = Σ λ_i * value_i. Useful when the
// same share set reconstructs many secrets (trustee tally combination).
func LagrangeCoefficients(indices []uint32) ([]*big.Int, error) {
	seen := make(map[uint32]bool, len(indices))
	for _, idx := range indices {
		if idx == 0 {
			return nil, errors.New("shamir: index must be nonzero")
		}
		if seen[idx] {
			return nil, fmt.Errorf("%w: index %d", ErrDuplicateShare, idx)
		}
		seen[idx] = true
	}
	out := make([]*big.Int, len(indices))
	for i, xiU := range indices {
		num := big.NewInt(1)
		den := big.NewInt(1)
		xi := big.NewInt(int64(xiU))
		for j, xjU := range indices {
			if i == j {
				continue
			}
			xj := big.NewInt(int64(xjU))
			num = group.MulScalar(num, xj)
			den = group.MulScalar(den, group.SubScalar(xj, xi))
		}
		invDen, err := group.InvScalar(den)
		if err != nil {
			return nil, err
		}
		out[i] = group.MulScalar(num, invDen)
	}
	return out, nil
}

// Interpolate returns Σ lam[i]·values[i] mod q: the secret shared by
// values, given the Lagrange coefficients of their share indices.
func Interpolate(lam, values []*big.Int) *big.Int {
	acc := new(big.Int)
	tmp := new(big.Int)
	for i, l := range lam {
		acc.Add(acc, tmp.Mul(l, values[i]))
	}
	return acc.Mod(acc, group.Order())
}

// AddShares returns the element-wise sum of two shares with the same index,
// which is a valid share of the sum of the two underlying secrets.
func AddShares(a, b Share) (Share, error) {
	if a.Index != b.Index {
		return Share{}, fmt.Errorf("shamir: adding shares with indices %d and %d", a.Index, b.Index)
	}
	return Share{Index: a.Index, Value: group.AddScalar(a.Value, b.Value)}, nil
}

// SecretToScalar embeds an arbitrary byte secret (up to 31 bytes, e.g. the
// 64-bit receipts and the 128-bit AES master key) into a field element with
// a length prefix so it round-trips exactly.
func SecretToScalar(secret []byte) (*big.Int, error) {
	if len(secret) > 30 {
		return nil, errors.New("shamir: secret too long to embed (max 30 bytes)")
	}
	buf := make([]byte, len(secret)+1)
	buf[0] = byte(len(secret))
	copy(buf[1:], secret)
	return new(big.Int).SetBytes(buf), nil
}

// ScalarToSecret reverses SecretToScalar.
func ScalarToSecret(v *big.Int) ([]byte, error) {
	b := v.Bytes()
	if len(b) == 0 {
		// The empty secret embeds as the zero scalar (length prefix 0).
		return []byte{}, nil
	}
	n := int(b[0])
	if n != len(b)-1 {
		return nil, fmt.Errorf("shamir: embedded length %d does not match payload %d", n, len(b)-1)
	}
	out := make([]byte, n)
	copy(out, b[1:])
	return out, nil
}

// Package group wraps the NIST P-256 elliptic-curve group with the scalar
// and point arithmetic the rest of the system needs: lifted-ElGamal
// commitments, Shamir sharing over the scalar field, hash-to-point
// derivation of the commitment key, and the multi-scalar multiplication
// behind batched verification (msm.go).
//
// All scalar arithmetic is performed modulo the group order q. Points are
// immutable values; the identity (point at infinity) is represented by the
// zero Point.
package group

import (
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
)

var (
	curve = elliptic.P256()
	// q is the group order (order of the base point).
	q = curve.Params().N

	// ErrInvalidPoint is returned when decoding bytes that are not a valid
	// compressed P-256 point.
	ErrInvalidPoint = errors.New("group: invalid point encoding")
	// ErrInvalidScalar is returned when decoding bytes that are not a valid
	// scalar in [0, q).
	ErrInvalidScalar = errors.New("group: invalid scalar encoding")
)

// Order returns a copy of the group order q.
func Order() *big.Int { return new(big.Int).Set(q) }

// Point is an element of the P-256 group. The zero value is the identity.
type Point struct {
	x, y *big.Int
}

// IsIdentity reports whether p is the point at infinity.
func (p Point) IsIdentity() bool { return p.x == nil || p.x.Sign() == 0 && p.y.Sign() == 0 }

// Equal reports whether two points are the same group element.
func (p Point) Equal(r Point) bool {
	if p.IsIdentity() || r.IsIdentity() {
		return p.IsIdentity() == r.IsIdentity()
	}
	return p.x.Cmp(r.x) == 0 && p.y.Cmp(r.y) == 0
}

// Add returns p + r.
func (p Point) Add(r Point) Point {
	if p.IsIdentity() {
		return r
	}
	if r.IsIdentity() {
		return p
	}
	// elliptic.Curve.Add does not handle P + (-P); check explicitly.
	if p.x.Cmp(r.x) == 0 && p.y.Cmp(r.y) != 0 {
		return Point{}
	}
	x, y := curve.Add(p.x, p.y, r.x, r.y)
	return Point{x, y}
}

// Neg returns -p.
func (p Point) Neg() Point {
	if p.IsIdentity() {
		return p
	}
	ny := new(big.Int).Sub(curve.Params().P, p.y)
	ny.Mod(ny, curve.Params().P)
	return Point{new(big.Int).Set(p.x), ny}
}

// Sub returns p - r.
func (p Point) Sub(r Point) Point { return p.Add(r.Neg()) }

// Mul returns k*p for scalar k.
func (p Point) Mul(k *big.Int) Point {
	if p.IsIdentity() {
		return Point{}
	}
	kk := new(big.Int).Mod(k, q)
	if kk.Sign() == 0 {
		return Point{}
	}
	x, y := curve.ScalarMult(p.x, p.y, kk.Bytes())
	return Point{x, y}
}

// Bytes returns the compressed SEC1 encoding of p. The identity encodes as a
// single zero byte.
func (p Point) Bytes() []byte {
	if p.IsIdentity() {
		return []byte{0}
	}
	return elliptic.MarshalCompressed(curve, p.x, p.y)
}

// String implements fmt.Stringer for debugging output.
func (p Point) String() string {
	if p.IsIdentity() {
		return "Point(identity)"
	}
	return fmt.Sprintf("Point(%x…)", p.Bytes()[:8])
}

// GobEncode implements gob.GobEncoder, so initialization data containing
// points can be serialized for on-disk distribution and HTTP transport.
func (p Point) GobEncode() ([]byte, error) { return p.Bytes(), nil }

// GobDecode implements gob.GobDecoder.
func (p *Point) GobDecode(b []byte) error {
	q, err := DecodePoint(b)
	if err != nil {
		return err
	}
	*p = q
	return nil
}

// DecodePoint parses the compressed encoding produced by Point.Bytes.
func DecodePoint(b []byte) (Point, error) {
	if len(b) == 1 && b[0] == 0 {
		return Point{}, nil
	}
	x, y := elliptic.UnmarshalCompressed(curve, b)
	if x == nil {
		return Point{}, ErrInvalidPoint
	}
	return Point{x, y}, nil
}

// Base returns the standard base point G.
func Base() Point {
	return Point{new(big.Int).Set(curve.Params().Gx), new(big.Int).Set(curve.Params().Gy)}
}

// BaseMul returns k*G using the optimized fixed-base multiplication.
func BaseMul(k *big.Int) Point {
	kk := new(big.Int).Mod(k, q)
	if kk.Sign() == 0 {
		return Point{}
	}
	x, y := curve.ScalarBaseMult(kk.Bytes())
	return Point{x, y}
}

// HashToPoint deterministically derives a group element from domain/msg by
// try-and-increment on SHA-256 outputs. Nobody knows the discrete log of the
// result with respect to G (or any other hash-derived point), which makes it
// suitable as an independent generator or an ElGamal commitment key.
func HashToPoint(domain string, msg []byte) Point {
	h := sha256.New()
	var ctr [4]byte
	for i := uint32(0); ; i++ {
		h.Reset()
		binary.BigEndian.PutUint32(ctr[:], i)
		h.Write([]byte(domain))
		h.Write(msg)
		h.Write(ctr[:])
		digest := h.Sum(nil)
		// Interpret as x coordinate candidate; attempt both y parities.
		buf := make([]byte, 33)
		buf[0] = 2 + byte(i&1)
		copy(buf[1:], digest)
		x, y := elliptic.UnmarshalCompressed(curve, buf)
		if x != nil {
			return Point{x, y}
		}
	}
}

// RandScalar returns a uniform scalar in [0, q) read from rnd.
func RandScalar(rnd io.Reader) (*big.Int, error) {
	k, err := rand.Int(rnd, q)
	if err != nil {
		return nil, fmt.Errorf("group: sampling scalar: %w", err)
	}
	return k, nil
}

// HashToScalar derives a scalar from the given byte chunks, domain separated.
// The output is uniform enough for Fiat–Shamir style challenges: we hash to
// 384 bits and reduce, making the bias negligible.
func HashToScalar(domain string, chunks ...[]byte) *big.Int {
	h := sha256.New()
	h.Write([]byte(domain))
	for _, c := range chunks {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(c)))
		h.Write(n[:])
		h.Write(c)
	}
	d1 := h.Sum(nil)
	h.Reset()
	h.Write([]byte("ddemos/expand"))
	h.Write(d1)
	d2 := h.Sum(nil)
	wide := append(d1, d2[:16]...)
	return new(big.Int).Mod(new(big.Int).SetBytes(wide), q)
}

// ScalarBytes returns the canonical 32-byte big-endian encoding of k mod q.
func ScalarBytes(k *big.Int) []byte {
	kk := new(big.Int).Mod(k, q)
	out := make([]byte, 32)
	kk.FillBytes(out)
	return out
}

// DecodeScalar parses a canonical 32-byte scalar encoding.
func DecodeScalar(b []byte) (*big.Int, error) {
	if len(b) != 32 {
		return nil, ErrInvalidScalar
	}
	k := new(big.Int).SetBytes(b)
	if k.Cmp(q) >= 0 {
		return nil, ErrInvalidScalar
	}
	return k, nil
}

// Scalar arithmetic helpers (all mod q).

// AddScalar returns a+b mod q.
func AddScalar(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Add(a, b), q)
}

// SubScalar returns a-b mod q.
func SubScalar(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Sub(a, b), q)
}

// MulScalar returns a*b mod q.
func MulScalar(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Mul(a, b), q)
}

// NegScalar returns -a mod q.
func NegScalar(a *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Neg(a), q)
}

// InvScalar returns a^-1 mod q, or an error if a ≡ 0.
func InvScalar(a *big.Int) (*big.Int, error) {
	aa := new(big.Int).Mod(a, q)
	if aa.Sign() == 0 {
		return nil, errors.New("group: inverse of zero scalar")
	}
	return new(big.Int).ModInverse(aa, q), nil
}

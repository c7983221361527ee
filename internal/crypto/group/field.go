// P-256 base-field arithmetic on 4×64-bit limbs in Montgomery form, shared
// by the variable-time multi-scalar multiplication (msm.go) and the
// constant-time fixed-base table (fixedbase.go). The standard library's
// curve API performs every point operation through marshal/unmarshal
// conversions (~7µs per addition on the reference machine), which makes
// any addition-heavy algorithm built on it slower than repeated
// ScalarMult calls; batch verification and the EA's prover only pay off
// with a field multiplication in the tens of nanoseconds, hence this
// dedicated implementation.
//
// The fixed-base table feeds secret scalars through this file, so its
// arithmetic is constant time: feMul, feSqr, feAdd and feSub end in
// masked selects rather than conditional subtractions, feIsZeroMask and
// feSelect are branch-free, and feInv runs the same
// square-and-multiply sequence (fixed by the public exponent p−2) for
// every input. The big.Int conversions (feToMont, feToBig) and the bool
// feIsZero are variable-time; they only touch public points or values
// the prover is about to publish.
package group

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// fe is a field element modulo the P-256 prime p, little-endian limbs,
// kept in Montgomery form (value·2^256 mod p) except where noted.
type fe [4]uint64

// p256P is the prime p = 2^256 - 2^224 + 2^192 + 2^96 - 1 (raw form).
// Its low limb is 2^64-1, so the Montgomery factor -p^{-1} mod 2^64 is 1
// and the reduction step needs no extra multiplication.
var p256P = fe{0xffffffffffffffff, 0x00000000ffffffff, 0x0000000000000000, 0xffffffff00000001}

var (
	feRR  fe // R² mod p: multiply by this to enter Montgomery form
	feOne fe // 1 in Montgomery form (R mod p)
)

func init() {
	p := curve.Params().P
	r2 := new(big.Int).Lsh(big.NewInt(1), 512)
	feRR = feFromSaturated(r2.Mod(r2, p))
	r1 := new(big.Int).Lsh(big.NewInt(1), 256)
	feOne = feFromSaturated(r1.Mod(r1, p))
}

// feFromSaturated loads a big.Int in [0, p) into raw (non-Montgomery) limbs.
func feFromSaturated(v *big.Int) fe {
	var buf [32]byte
	v.FillBytes(buf[:])
	return fe{
		binary.BigEndian.Uint64(buf[24:32]),
		binary.BigEndian.Uint64(buf[16:24]),
		binary.BigEndian.Uint64(buf[8:16]),
		binary.BigEndian.Uint64(buf[0:8]),
	}
}

// feToMont converts a coordinate in [0, p) to Montgomery form.
func feToMont(v *big.Int) fe {
	raw := feFromSaturated(v)
	var out fe
	feMul(&out, &raw, &feRR)
	return out
}

// feToBig converts a Montgomery-form element back to a big.Int.
func feToBig(x *fe) *big.Int {
	one := fe{1}
	var raw fe
	feMul(&raw, x, &one) // Montgomery-multiply by 1 strips the R factor
	var buf [32]byte
	binary.BigEndian.PutUint64(buf[0:8], raw[3])
	binary.BigEndian.PutUint64(buf[8:16], raw[2])
	binary.BigEndian.PutUint64(buf[16:24], raw[1])
	binary.BigEndian.PutUint64(buf[24:32], raw[0])
	return new(big.Int).SetBytes(buf[:])
}

// feMul sets z = x·y·R^{-1} mod p (Montgomery multiplication). Fully
// unrolled: Comba column products, then four REDC rounds. The reduction
// exploits p's limb structure — the quotient digit is the low limb
// (-p^{-1} ≡ 1 mod 2^64) and p[2] = 0 drops one multiplication per round.
func feMul(z, x, y *fe) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]

	var t0, t1, t2, t3, t4, t5, t6, t7 uint64
	var a0, a1, a2, c uint64
	var hi, lo uint64

	// column 0
	a0, t0 = bits.Mul64(x0, y0)
	a1, a2 = 0, 0

	// column 1: x0·y1 + x1·y0
	hi, lo = bits.Mul64(x0, y1)
	a0, c = bits.Add64(a0, lo, 0)
	a1, c = bits.Add64(a1, hi, c)
	a2 += c
	hi, lo = bits.Mul64(x1, y0)
	a0, c = bits.Add64(a0, lo, 0)
	a1, c = bits.Add64(a1, hi, c)
	a2 += c
	t1, a0, a1, a2 = a0, a1, a2, 0

	// column 2: x0·y2 + x1·y1 + x2·y0
	hi, lo = bits.Mul64(x0, y2)
	a0, c = bits.Add64(a0, lo, 0)
	a1, c = bits.Add64(a1, hi, c)
	a2 += c
	hi, lo = bits.Mul64(x1, y1)
	a0, c = bits.Add64(a0, lo, 0)
	a1, c = bits.Add64(a1, hi, c)
	a2 += c
	hi, lo = bits.Mul64(x2, y0)
	a0, c = bits.Add64(a0, lo, 0)
	a1, c = bits.Add64(a1, hi, c)
	a2 += c
	t2, a0, a1, a2 = a0, a1, a2, 0

	// column 3: x0·y3 + x1·y2 + x2·y1 + x3·y0
	hi, lo = bits.Mul64(x0, y3)
	a0, c = bits.Add64(a0, lo, 0)
	a1, c = bits.Add64(a1, hi, c)
	a2 += c
	hi, lo = bits.Mul64(x1, y2)
	a0, c = bits.Add64(a0, lo, 0)
	a1, c = bits.Add64(a1, hi, c)
	a2 += c
	hi, lo = bits.Mul64(x2, y1)
	a0, c = bits.Add64(a0, lo, 0)
	a1, c = bits.Add64(a1, hi, c)
	a2 += c
	hi, lo = bits.Mul64(x3, y0)
	a0, c = bits.Add64(a0, lo, 0)
	a1, c = bits.Add64(a1, hi, c)
	a2 += c
	t3, a0, a1, a2 = a0, a1, a2, 0

	// column 4: x1·y3 + x2·y2 + x3·y1
	hi, lo = bits.Mul64(x1, y3)
	a0, c = bits.Add64(a0, lo, 0)
	a1, c = bits.Add64(a1, hi, c)
	a2 += c
	hi, lo = bits.Mul64(x2, y2)
	a0, c = bits.Add64(a0, lo, 0)
	a1, c = bits.Add64(a1, hi, c)
	a2 += c
	hi, lo = bits.Mul64(x3, y1)
	a0, c = bits.Add64(a0, lo, 0)
	a1, c = bits.Add64(a1, hi, c)
	a2 += c
	t4, a0, a1, a2 = a0, a1, a2, 0

	// column 5: x2·y3 + x3·y2
	hi, lo = bits.Mul64(x2, y3)
	a0, c = bits.Add64(a0, lo, 0)
	a1, c = bits.Add64(a1, hi, c)
	a2 += c
	hi, lo = bits.Mul64(x3, y2)
	a0, c = bits.Add64(a0, lo, 0)
	a1, c = bits.Add64(a1, hi, c)
	a2 += c
	t5, a0, a1 = a0, a1, a2

	// column 6: x3·y3
	hi, lo = bits.Mul64(x3, y3)
	a0, c = bits.Add64(a0, lo, 0)
	a1, _ = bits.Add64(a1, hi, c)
	t6, t7 = a0, a1

	// REDC rounds. Each round i adds m·p at limb offset i (m = t[i]),
	// zeroing t[i]; p = {2^64-1, 2^32-1, 0, 2^64-2^32+1}.
	var extra, carry uint64

	// round 0: m = t0
	m := t0
	hi, lo = bits.Mul64(m, p256P[0])
	_, c = bits.Add64(t0, lo, 0)
	hi += c
	carry = hi
	hi, lo = bits.Mul64(m, p256P[1])
	t1, c = bits.Add64(t1, lo, 0)
	hi += c
	t1, c = bits.Add64(t1, carry, 0)
	hi += c
	carry = hi
	t2, carry = bits.Add64(t2, carry, 0)
	hi, lo = bits.Mul64(m, p256P[3])
	t3, c = bits.Add64(t3, lo, 0)
	hi += c
	t3, c = bits.Add64(t3, carry, 0)
	hi += c
	carry = hi
	t4, c = bits.Add64(t4, carry, 0)
	t5, c = bits.Add64(t5, 0, c)
	t6, c = bits.Add64(t6, 0, c)
	t7, c = bits.Add64(t7, 0, c)
	extra += c

	// round 1: m = t1
	m = t1
	hi, lo = bits.Mul64(m, p256P[0])
	_, c = bits.Add64(t1, lo, 0)
	hi += c
	carry = hi
	hi, lo = bits.Mul64(m, p256P[1])
	t2, c = bits.Add64(t2, lo, 0)
	hi += c
	t2, c = bits.Add64(t2, carry, 0)
	hi += c
	carry = hi
	t3, carry = bits.Add64(t3, carry, 0)
	hi, lo = bits.Mul64(m, p256P[3])
	t4, c = bits.Add64(t4, lo, 0)
	hi += c
	t4, c = bits.Add64(t4, carry, 0)
	hi += c
	carry = hi
	t5, c = bits.Add64(t5, carry, 0)
	t6, c = bits.Add64(t6, 0, c)
	t7, c = bits.Add64(t7, 0, c)
	extra += c

	// round 2: m = t2
	m = t2
	hi, lo = bits.Mul64(m, p256P[0])
	_, c = bits.Add64(t2, lo, 0)
	hi += c
	carry = hi
	hi, lo = bits.Mul64(m, p256P[1])
	t3, c = bits.Add64(t3, lo, 0)
	hi += c
	t3, c = bits.Add64(t3, carry, 0)
	hi += c
	carry = hi
	t4, carry = bits.Add64(t4, carry, 0)
	hi, lo = bits.Mul64(m, p256P[3])
	t5, c = bits.Add64(t5, lo, 0)
	hi += c
	t5, c = bits.Add64(t5, carry, 0)
	hi += c
	carry = hi
	t6, c = bits.Add64(t6, carry, 0)
	t7, c = bits.Add64(t7, 0, c)
	extra += c

	// round 3: m = t3
	m = t3
	hi, lo = bits.Mul64(m, p256P[0])
	_, c = bits.Add64(t3, lo, 0)
	hi += c
	carry = hi
	hi, lo = bits.Mul64(m, p256P[1])
	t4, c = bits.Add64(t4, lo, 0)
	hi += c
	t4, c = bits.Add64(t4, carry, 0)
	hi += c
	carry = hi
	t5, carry = bits.Add64(t5, carry, 0)
	hi, lo = bits.Mul64(m, p256P[3])
	t6, c = bits.Add64(t6, lo, 0)
	hi += c
	t6, c = bits.Add64(t6, carry, 0)
	hi += c
	carry = hi
	t7, c = bits.Add64(t7, carry, 0)
	extra += c

	// The REDC output t4..t7 (+ extra·2^256) is < 2p; keep the difference
	// with p when it did not borrow or when extra is set (the value then
	// certainly exceeds p).
	feReduceOnce(z, &fe{t4, t5, t6, t7}, extra)
}

// feReduceOnce sets z = v − p when v + carry·2^256 ≥ p and z = v
// otherwise, for a value below 2p. The choice is a mask, not a branch.
func feReduceOnce(z, v *fe, carry uint64) {
	var b uint64
	var s fe
	s[0], b = bits.Sub64(v[0], p256P[0], 0)
	s[1], b = bits.Sub64(v[1], p256P[1], b)
	s[2], b = bits.Sub64(v[2], p256P[2], b)
	s[3], b = bits.Sub64(v[3], p256P[3], b)
	// The mask is all ones when carry == 1 or b == 0.
	feSelect(z, &s, v, -(carry | (b ^ 1)))
}

// feSqr sets z = x² (no dedicated squaring formula; feMul is fast enough).
func feSqr(z, x *fe) { feMul(z, x, x) }

// feAdd sets z = x + y mod p.
func feAdd(z, x, y *fe) {
	var c uint64
	var o fe
	o[0], c = bits.Add64(x[0], y[0], 0)
	o[1], c = bits.Add64(x[1], y[1], c)
	o[2], c = bits.Add64(x[2], y[2], c)
	o[3], c = bits.Add64(x[3], y[3], c)
	feReduceOnce(z, &o, c)
}

// feSub sets z = x - y mod p, adding p back under the borrow's mask.
func feSub(z, x, y *fe) {
	var b uint64
	var o fe
	o[0], b = bits.Sub64(x[0], y[0], 0)
	o[1], b = bits.Sub64(x[1], y[1], b)
	o[2], b = bits.Sub64(x[2], y[2], b)
	o[3], b = bits.Sub64(x[3], y[3], b)
	mask := -b
	var c uint64
	z[0], c = bits.Add64(o[0], p256P[0]&mask, 0)
	z[1], c = bits.Add64(o[1], p256P[1]&mask, c)
	z[2], c = bits.Add64(o[2], p256P[2]&mask, c)
	z[3], _ = bits.Add64(o[3], p256P[3]&mask, c)
}

// feIsZero reports x == 0 (works in any form; zero is zero in both).
// Variable-time: msm.go's special cases only.
func feIsZero(x *fe) bool { return x[0]|x[1]|x[2]|x[3] == 0 }

// feIsZeroMask returns all ones when x == 0 and zero otherwise.
func feIsZeroMask(x *fe) uint64 {
	v := x[0] | x[1] | x[2] | x[3]
	return ((v | -v) >> 63) - 1
}

// feSelect sets z = a where mask is all ones and z = b where it is zero.
func feSelect(z, a, b *fe, mask uint64) {
	z[0] = b[0] ^ (mask & (a[0] ^ b[0]))
	z[1] = b[1] ^ (mask & (a[1] ^ b[1]))
	z[2] = b[2] ^ (mask & (a[2] ^ b[2]))
	z[3] = b[3] ^ (mask & (a[3] ^ b[3]))
}

// feInv sets z = x^{-1} = x^{p−2} by Fermat's little theorem (z = 0 for
// x = 0). The exponent is the public constant p−2, so every input runs the
// same 256 squarings and 128 multiplications.
func feInv(z, x *fe) {
	e := p256P
	e[0] -= 2 // p[0] = 2^64−1: no borrow
	r := feOne
	for i := 255; i >= 0; i-- {
		feSqr(&r, &r)
		if e[i/64]>>(i%64)&1 == 1 {
			feMul(&r, &r, x)
		}
	}
	*z = r
}

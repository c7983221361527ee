// Constant-time fixed-base multiplication for one public point whose
// multiples are taken with secret scalars: the commitment key P, which the
// EA multiplies by every commitment's randomness and every proof's nonce.
package group

import (
	"math/big"
	"math/bits"
	"sync"
)

const (
	fbWindow  = 5                               // bits per window
	fbWindows = (256 + fbWindow - 1) / fbWindow // 52 windows cover any 256-bit scalar
	fbDigits  = 1<<fbWindow - 1                 // non-zero digits per window
	fbEntries = fbWindows * fbDigits            // affine points in the table (≈ 100 KiB)
)

// affine is a finite point in Montgomery-form affine coordinates.
type affine struct{ x, y fe }

// FixedBase multiplies one base point B by secret scalars in constant time.
// Its table holds d·2^(5i)·B for every window i < 52 and digit 1 ≤ d ≤ 31,
// so k·B is the sum of one entry per window of k: 52 mixed additions and no
// doublings. The table is built on first use, so holders that never
// multiply (verifiers) pay nothing, and is safe for concurrent use.
//
// Nothing secret steers a branch or a memory index: every lookup scans all
// 31 entries of its window with masked selects, the window count is fixed,
// a zero digit and the point at infinity are handled by masks, and the
// outputs are normalised with a Fermat inversion (feInv) whose operation
// sequence is fixed.
type FixedBase struct {
	base  Point
	once  sync.Once
	table []affine // window w's digit d at w*fbDigits + d − 1
}

// NewFixedBase returns the (not yet built) table for the public point b,
// which must not be the identity.
func NewFixedBase(b Point) *FixedBase { return &FixedBase{base: b} }

// Term is one multiplication for FixedBase.MulAdd: K·B, plus Add when Mask
// is 1. Add is meant to be an affine point the caller already holds (such
// as G or a BaseMul result); an identity Add counts as Mask 0.
type Term struct {
	K    *big.Int
	Add  Point
	Mask int // 0 or 1; applied by masking, never by branching
}

// MulAdd sets out[i] = terms[i].K·B + terms[i].Mask·terms[i].Add for the
// table's base B, all normalised with one inversion (Montgomery's trick).
// Each K must lie in [0, 2^256); it is reduced mod q without branching.
//
// The final addition of Add is the incomplete mixed formula; it is wrong
// only when K·B = ±Add, i.e. when the caller knows a discrete-log relation
// between B and Add. For B a hash-derived key and Add a multiple of G
// nobody can produce one.
func (t *FixedBase) MulAdd(out []Point, terms []Term) {
	t.once.Do(t.build)
	acc := make([]jacPoint, len(terms))
	for i, tm := range terms {
		k := scalarLimbs(tm.K)
		t.mul(&acc[i], &k)
		if tm.Add.IsIdentity() {
			continue
		}
		a := affine{feToMont(tm.Add.x), feToMont(tm.Add.y)}
		acc[i].addMixedMasked(&a, -uint64(tm.Mask&1))
	}
	pts := make([]affine, len(acc))
	inf := batchToAffine(pts, acc)
	for i := range pts {
		if inf[i] != 0 { // the identity has no affine form; only k ≡ 0 without an addend gives it
			out[i] = Point{}
			continue
		}
		out[i] = Point{feToBig(&pts[i].x), feToBig(&pts[i].y)}
	}
}

// qLimbs is the group order as little-endian 64-bit limbs.
var qLimbs = feFromSaturated(q)

// scalarLimbs loads k ∈ [0, 2^256) as little-endian limbs reduced mod q.
// 2^256 < 2q, so one subtraction of q, kept under a mask, suffices.
func scalarLimbs(k *big.Int) [4]uint64 {
	v := feFromSaturated(k) // limbs only, no field semantics
	var s fe
	var b uint64
	s[0], b = bits.Sub64(v[0], qLimbs[0], 0)
	s[1], b = bits.Sub64(v[1], qLimbs[1], b)
	s[2], b = bits.Sub64(v[2], qLimbs[2], b)
	s[3], b = bits.Sub64(v[3], qLimbs[3], b)
	feSelect(&v, &s, &v, b-1) // b = 0: v ≥ q, keep v − q
	return [4]uint64(v)
}

// mul sets p = k·B for a scalar k < q.
//
// Why the incomplete mixed addition is safe here: before window i the
// accumulator is a·B with a = Σ_{j<i} d_j·2^(5j) < 2^(5i), and window i adds
// d·2^(5i)·B with d ≥ 1. The formula fails only for a·B = ±d·2^(5i)·B,
// i.e. a ≡ ±d·2^(5i) (mod q). But 0 < d·2^(5i) − a and a + d·2^(5i) ≤ k < q,
// so neither difference nor sum is a multiple of q, unless a = 0 — and
// then the accumulator is the point at infinity, which the mask handles.
// TestFixedBaseNeverHitsExceptionalCase checks the argument window by
// window.
func (t *FixedBase) mul(p *jacPoint, k *[4]uint64) {
	*p = jacPoint{}
	var e affine
	for w := 0; w < fbWindows; w++ {
		d := msmDigit(k, w*fbWindow, fbWindow)
		t.lookup(&e, w, d)
		p.addMixedMasked(&e, ^ctEqMask(d, 0))
	}
}

// lookup sets e = d·2^(5w)·B (or (0, 0) for d = 0) by scanning every entry
// of window w.
func (t *FixedBase) lookup(e *affine, w int, d uint64) {
	*e = affine{}
	row := t.table[w*fbDigits : (w+1)*fbDigits]
	for i := range row {
		m := ctEqMask(uint64(i+1), d)
		e.x[0] |= row[i].x[0] & m
		e.x[1] |= row[i].x[1] & m
		e.x[2] |= row[i].x[2] & m
		e.x[3] |= row[i].x[3] & m
		e.y[0] |= row[i].y[0] & m
		e.y[1] |= row[i].y[1] & m
		e.y[2] |= row[i].y[2] & m
		e.y[3] |= row[i].y[3] & m
	}
}

// ctEqMask returns all ones when a == b and zero otherwise.
func ctEqMask(a, b uint64) uint64 {
	x := a ^ b
	return ((x | -x) >> 63) - 1
}

// addMixedMasked sets p = p + a where add is all ones and leaves p unchanged
// where add is zero, without branching. A p at infinity becomes a (lifted
// with Z = 1) under a mask; p = ±a must not occur (see mul).
func (p *jacPoint) addMixedMasked(a *affine, add uint64) {
	var sum jacPoint
	p.madd(&sum, &a.x, &a.y)
	inf := feIsZeroMask(&p.z)
	feSelect(&sum.x, &a.x, &sum.x, inf)
	feSelect(&sum.y, &a.y, &sum.y, inf)
	feSelect(&sum.z, &feOne, &sum.z, inf)
	feSelect(&p.x, &sum.x, &p.x, add)
	feSelect(&p.y, &sum.y, &p.y, add)
	feSelect(&p.z, &sum.z, &p.z, add)
}

// batchToAffine normalises pts into out with one feInv (Montgomery's
// trick) and returns, per point, all ones where it is the point at
// infinity. Such a point's Z is swapped for 1 under a mask so it cannot
// zero the shared product; its out entry is then meaningless.
func batchToAffine(out []affine, pts []jacPoint) []uint64 {
	n := len(pts)
	inf := make([]uint64, n)
	zs := make([]fe, n)
	prefix := make([]fe, n) // prefix[i] = z_0·…·z_{i−1}
	acc := feOne
	for i := range pts {
		inf[i] = feIsZeroMask(&pts[i].z)
		feSelect(&zs[i], &feOne, &pts[i].z, inf[i])
		prefix[i] = acc
		feMul(&acc, &acc, &zs[i])
	}
	var inv fe
	feInv(&inv, &acc) // inv = 1/(z_0·…·z_{n−1})
	for i := n - 1; i >= 0; i-- {
		var zi, zi2, zi3 fe
		feMul(&zi, &inv, &prefix[i]) // 1/z_i
		feMul(&inv, &inv, &zs[i])    // 1/(z_0·…·z_{i−1})
		feSqr(&zi2, &zi)
		feMul(&zi3, &zi2, &zi)
		feMul(&out[i].x, &pts[i].x, &zi2)
		feMul(&out[i].y, &pts[i].y, &zi3)
	}
	return inf
}

// build fills the table. The base is public, so this uses the
// variable-time Jacobian formulas.
func (t *FixedBase) build() {
	var base jacPoint
	base.x, base.y, base.z = feToMont(t.base.x), feToMont(t.base.y), feOne
	pts := make([]jacPoint, fbEntries)
	for w := 0; w < fbWindows; w++ {
		row := pts[w*fbDigits : (w+1)*fbDigits]
		row[0] = base
		for d := 1; d < fbDigits; d++ {
			row[d] = row[d-1]
			row[d].add(&base)
		}
		for i := 0; i < fbWindow; i++ {
			base.double()
		}
	}
	t.table = make([]affine, fbEntries)
	batchToAffine(t.table, pts)
}

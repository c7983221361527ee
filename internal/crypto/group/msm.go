// Variable-time multi-scalar multiplication (Pippenger's bucket method)
// over Jacobian coordinates. This is the engine behind batched opening
// verification: one Σ γᵢ·Pᵢ evaluation replaces hundreds of independent
// ScalarMult calls, and the Jacobian formulas amortize the per-operation
// inversion the affine API pays on every Add.
package group

import "math/big"

// jacPoint is a point in Jacobian coordinates (X/Z², Y/Z³) with
// Montgomery-form field elements. The point at infinity has Z = 0.
type jacPoint struct {
	x, y, z fe
}

func (p *jacPoint) isInf() bool { return feIsZero(&p.z) }

// double sets p = 2p ("dbl-2001-b" for a = -3, 3M + 5S).
func (p *jacPoint) double() {
	if p.isInf() {
		return
	}
	var delta, gamma, beta, alpha, t1, t2 fe
	feSqr(&delta, &p.z)
	feSqr(&gamma, &p.y)
	feMul(&beta, &p.x, &gamma)
	feSub(&t1, &p.x, &delta)
	feAdd(&t2, &p.x, &delta)
	feMul(&alpha, &t1, &t2)
	feAdd(&t1, &alpha, &alpha)
	feAdd(&alpha, &t1, &alpha) // alpha = 3(X-δ)(X+δ)

	var z3 fe
	feAdd(&z3, &p.y, &p.z)
	feSqr(&z3, &z3)
	feSub(&z3, &z3, &gamma)
	feSub(&z3, &z3, &delta)

	var x3, t8 fe
	feSqr(&x3, &alpha)
	feAdd(&t8, &beta, &beta) // 2β
	feAdd(&t8, &t8, &t8)     // 4β
	beta4 := t8
	feAdd(&t8, &t8, &t8) // 8β
	feSub(&x3, &x3, &t8)

	var y3 fe
	feSub(&t2, &beta4, &x3)
	feMul(&y3, &alpha, &t2)
	feSqr(&t2, &gamma)
	feAdd(&t2, &t2, &t2)
	feAdd(&t2, &t2, &t2)
	feAdd(&t2, &t2, &t2) // 8γ²
	feSub(&y3, &y3, &t2)

	p.x, p.y, p.z = x3, y3, z3
}

// addMixed sets p = p + (ax, ay) where the addend is affine in Montgomery
// form, handling every special case by branching (public points only).
func (p *jacPoint) addMixed(ax, ay *fe) {
	if p.isInf() {
		p.x, p.y, p.z = *ax, *ay, feOne
		return
	}
	var sum jacPoint
	if h, s2 := p.madd(&sum, ax, ay); feIsZero(&h) {
		if s2 == p.y {
			p.double()
			return
		}
		p.z = fe{} // P + (-P)
		return
	}
	*p = sum
}

// madd sets out = p + (ax, ay) by "madd-2007-bl" (7M + 4S) without
// branching. The formula is incomplete: out is wrong when p is the point at
// infinity or p = ±(ax, ay). The second case shows as h = 0, and s2 = p.y
// then tells doubling from cancellation; callers handle both.
func (p *jacPoint) madd(out *jacPoint, ax, ay *fe) (h, s2 fe) {
	var z1z1, u2 fe
	feSqr(&z1z1, &p.z)
	feMul(&u2, ax, &z1z1)
	feMul(&s2, ay, &p.z)
	feMul(&s2, &s2, &z1z1)
	feSub(&h, &u2, &p.x)

	var hh, i, j, r, v fe
	feSqr(&hh, &h)
	feAdd(&i, &hh, &hh)
	feAdd(&i, &i, &i) // 4H²
	feMul(&j, &h, &i)
	feSub(&r, &s2, &p.y)
	feAdd(&r, &r, &r)
	feMul(&v, &p.x, &i)

	var x3, y3, z3, t fe
	feSqr(&x3, &r)
	feSub(&x3, &x3, &j)
	feSub(&x3, &x3, &v)
	feSub(&x3, &x3, &v)
	feSub(&t, &v, &x3)
	feMul(&y3, &r, &t)
	feMul(&t, &p.y, &j)
	feSub(&y3, &y3, &t)
	feSub(&y3, &y3, &t)
	feAdd(&z3, &p.z, &h)
	feSqr(&z3, &z3)
	feSub(&z3, &z3, &z1z1)
	feSub(&z3, &z3, &hh)

	out.x, out.y, out.z = x3, y3, z3
	return h, s2
}

// add sets p = p + q ("add-2007-bl", 11M + 5S).
func (p *jacPoint) add(q *jacPoint) {
	if q.isInf() {
		return
	}
	if p.isInf() {
		*p = *q
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2, h, r fe
	feSqr(&z1z1, &p.z)
	feSqr(&z2z2, &q.z)
	feMul(&u1, &p.x, &z2z2)
	feMul(&u2, &q.x, &z1z1)
	feMul(&s1, &p.y, &q.z)
	feMul(&s1, &s1, &z2z2)
	feMul(&s2, &q.y, &p.z)
	feMul(&s2, &s2, &z1z1)
	feSub(&h, &u2, &u1)
	if feIsZero(&h) {
		if s1 == s2 {
			p.double()
			return
		}
		p.z = fe{} // P + (-P)
		return
	}
	var i, j, v fe
	feAdd(&i, &h, &h)
	feSqr(&i, &i) // (2H)²
	feMul(&j, &h, &i)
	feSub(&r, &s2, &s1)
	feAdd(&r, &r, &r)
	feMul(&v, &u1, &i)

	var x3, y3, z3, t fe
	feSqr(&x3, &r)
	feSub(&x3, &x3, &j)
	feSub(&x3, &x3, &v)
	feSub(&x3, &x3, &v)
	feSub(&t, &v, &x3)
	feMul(&y3, &r, &t)
	feMul(&t, &s1, &j)
	feAdd(&t, &t, &t)
	feSub(&y3, &y3, &t)
	feAdd(&z3, &p.z, &q.z)
	feSqr(&z3, &z3)
	feSub(&z3, &z3, &z1z1)
	feSub(&z3, &z3, &z2z2)
	feMul(&z3, &z3, &h)

	p.x, p.y, p.z = x3, y3, z3
}

// toAffine converts back to the package's affine representation with a
// single modular inversion.
func (p *jacPoint) toAffine() Point {
	if p.isInf() {
		return Point{}
	}
	pm := curve.Params().P
	zb := feToBig(&p.z)
	zi := new(big.Int).ModInverse(zb, pm)
	zi2 := new(big.Int).Mod(new(big.Int).Mul(zi, zi), pm)
	zi3 := new(big.Int).Mod(new(big.Int).Mul(zi2, zi), pm)
	x := new(big.Int).Mod(new(big.Int).Mul(feToBig(&p.x), zi2), pm)
	y := new(big.Int).Mod(new(big.Int).Mul(feToBig(&p.y), zi3), pm)
	return Point{x: x, y: y}
}

// msmWindow picks the Pippenger window width for n points.
func msmWindow(n int) int {
	switch {
	case n < 16:
		return 3
	case n < 64:
		return 4
	case n < 256:
		return 6
	case n < 1024:
		return 7
	default:
		return 8
	}
}

// digit extracts c bits of k starting at bit position start.
func msmDigit(k *[4]uint64, start, c int) uint64 {
	limb := start >> 6
	off := start & 63
	d := k[limb] >> uint(off)
	if off+c > 64 && limb+1 < 4 {
		d |= k[limb+1] << uint(64-off)
	}
	return d & (1<<uint(c) - 1)
}

// MultiScalarMulVartime computes Σ scalars[i]·points[i] over the shorter of
// the two slices. Scalars are reduced modulo the group order; identity
// points and zero scalars are skipped. The implementation is
// variable-time and must only be used to verify public data — never with
// secret scalars.
func MultiScalarMulVartime(points []Point, scalars []*big.Int) Point {
	n := len(points)
	if len(scalars) < n {
		n = len(scalars)
	}
	type entry struct {
		ax, ay fe
		k      [4]uint64
	}
	entries := make([]entry, 0, n)
	maxBits := 0
	for i := 0; i < n; i++ {
		if points[i].IsIdentity() {
			continue
		}
		k := scalars[i]
		if k.Sign() < 0 || k.Cmp(q) >= 0 {
			k = new(big.Int).Mod(k, q)
		}
		if k.Sign() == 0 {
			continue
		}
		var e entry
		e.ax = feToMont(points[i].x)
		e.ay = feToMont(points[i].y)
		raw := feFromSaturated(k) // scalar < q < 2^256: limbs only, no field semantics
		e.k = [4]uint64(raw)
		if bl := k.BitLen(); bl > maxBits {
			maxBits = bl
		}
		entries = append(entries, e)
	}
	if len(entries) == 0 {
		return Point{}
	}

	c := msmWindow(len(entries))
	buckets := make([]jacPoint, 1<<uint(c)-1)
	var acc jacPoint
	for start := ((maxBits+c-1)/c - 1) * c; start >= 0; start -= c {
		for i := 0; i < c; i++ {
			acc.double()
		}
		for i := range buckets {
			buckets[i] = jacPoint{}
		}
		for ei := range entries {
			if d := msmDigit(&entries[ei].k, start, c); d != 0 {
				buckets[d-1].addMixed(&entries[ei].ax, &entries[ei].ay)
			}
		}
		// Σ d·bucket[d] via suffix sums: running accumulates the suffix,
		// sum accumulates Σ running.
		var running, sum jacPoint
		for d := len(buckets) - 1; d >= 0; d-- {
			running.add(&buckets[d])
			sum.add(&running)
		}
		acc.add(&sum)
	}
	return acc.toAffine()
}

// Variable-time multi-scalar multiplication (Pippenger's bucket method with
// signed digits). This is the engine behind batched verification: one
// Σ γᵢ·Pᵢ evaluation replaces hundreds of independent ScalarMult calls. The
// buckets are summed in affine coordinates, a tree level at a time, so that
// all additions of a level share one inversion (Montgomery's trick); the
// Jacobian formulas below combine the bucket sums and the windows.
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

// msmDigit extracts c bits of k starting at bit position start < 256.
func msmDigit(k *[4]uint64, start, c int) uint64 {
	limb := start >> 6
	off := start & 63
	d := k[limb] >> uint(off)
	if off+c > 64 && limb+1 < 4 {
		d |= k[limb+1] << uint(64-off)
	}
	return d & (1<<uint(c) - 1)
}

// signedDigit returns the signed c-bit digit of k at bit position start,
// in [−2^(c−1)+1, 2^(c−1)], taking in and updating the carry of the window
// below. Windows must be visited from bit 0 upward.
func signedDigit(k *[4]uint64, start, c int, carry *uint8) int16 {
	d := uint64(*carry)
	if start < 256 {
		d += msmDigit(k, start, c)
	}
	if d > 1<<(c-1) {
		*carry = 1
		return int16(d) - 1<<c
	}
	*carry = 0
	return int16(d)
}

// msmWidths is the window width per input size, measured on one core with
// the scalar mix zkp.Batch produces — two 128-bit γ per 256-bit product
// (BenchmarkMultiScalarMulWindow; docs/board-verify.md has the sweep). A
// row holds for n below its bound; the last row holds beyond it too.
var msmWidths = [...]struct{ below, c int }{
	{16, 2}, {40, 3}, {128, 4}, {320, 5}, {768, 6}, {1536, 7}, {4096, 8},
	{12288, 9}, {24576, 10}, {0, 11},
}

// windowBits picks the signed-digit window width for n points.
func windowBits(n int) int {
	for _, w := range msmWidths[:len(msmWidths)-1] {
		if n < w.below {
			return w.c
		}
	}
	return msmWidths[len(msmWidths)-1].c
}

// bucketTarget is roughly how many bucket entries one reduction covers:
// small inputs reduce the buckets of several windows together, so that a
// tree level's additions share an inversion with as many others as a large
// input's do.
const bucketTarget = 1 << 13

// MultiScalarMulVartime computes Σ scalars[i]·points[i] over the shorter of
// the two slices. Scalars are reduced modulo the group order; identity
// points and zero scalars are skipped. The implementation is
// variable-time and must only be used to verify public data — never with
// secret scalars.
func MultiScalarMulVartime(points []Point, scalars []*big.Int) Point {
	pts, ks, maxBits := msmInputs(points, scalars)
	if len(pts) == 0 {
		return Point{}
	}
	acc := pippenger(pts, ks, maxBits, windowBits(len(pts)))
	return acc.toAffine()
}

// msmInputs converts the non-trivial pairs to Montgomery-form points and
// scalar limbs reduced mod q, with the longest scalar's bit length.
func msmInputs(points []Point, scalars []*big.Int) (pts []affine, ks [][4]uint64, maxBits int) {
	n := min(len(points), len(scalars))
	pts = make([]affine, 0, n)
	ks = make([][4]uint64, 0, n)
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
		pts = append(pts, affine{feToMont(points[i].x), feToMont(points[i].y)})
		ks = append(ks, [4]uint64(feFromSaturated(k))) // scalar < q < 2^256: limbs only, no field semantics
		maxBits = max(maxBits, k.BitLen())
	}
	return pts, ks, maxBits
}

// pippenger returns Σ ks[i]·pts[i] for scalars below 2^maxBits, with
// signed c-bit digits: a window has 2^(c−1) buckets, and a negative digit
// puts the point into bucket |d| with y negated.
func pippenger(pts []affine, ks [][4]uint64, maxBits, c int) jacPoint {
	n := len(pts)
	half := 1 << (c - 1)
	windows := maxBits/c + 1 // the top window takes the carry out of the one below
	per := min(max(1, bucketTarget/n), windows)
	sums := make([]jacPoint, windows)
	carry := make([]uint8, n)
	digits := make([]int16, per*n) // window j of the current group at j·n
	var bk buckets
	for w0 := 0; w0 < windows; w0 += per {
		g := min(per, windows-w0)
		// Window j's bucket |d| is bucket j·half + |d| − 1 of the group.
		bk.reset(g * half)
		for i := range ks {
			for j := 0; j < g; j++ {
				d := signedDigit(&ks[i], (w0+j)*c, c, &carry[i])
				digits[j*n+i] = d
				if d != 0 {
					bk.cnt[j*half+int(abs16(d))-1]++
				}
			}
		}
		bk.layout()
		for j := 0; j < g; j++ {
			for i, d := range digits[j*n : j*n+n] {
				if d != 0 {
					bk.put(j*half+int(abs16(d))-1, &pts[i], d < 0)
				}
			}
		}
		bk.reduce()
		for j := 0; j < g; j++ {
			sums[w0+j] = bk.weightedSum(j*half, half)
		}
	}
	acc := sums[windows-1]
	for w := windows - 2; w >= 0; w-- {
		for i := 0; i < c; i++ {
			acc.double()
		}
		acc.add(&sums[w])
	}
	return acc
}

func abs16(d int16) int16 {
	if d < 0 {
		return -d
	}
	return d
}

// buckets holds the points of every bucket of one group of windows,
// bucket b at buf[start[b] : start[b]+cnt[b]], and the working space of
// the batched inversion. Its slices are reused across groups.
type buckets struct {
	buf        []affine
	start, cnt []int32
	den, inv   []fe // per pair of a level: the denominator, then its inverse
}

// reset empties nb buckets.
func (bk *buckets) reset(nb int) {
	if cap(bk.cnt) < nb {
		bk.start, bk.cnt = make([]int32, nb), make([]int32, nb)
	}
	bk.start, bk.cnt = bk.start[:nb], bk.cnt[:nb]
	clear(bk.cnt)
}

// layout turns the counts into contiguous runs (a counting sort) and zeroes
// the counts so that put can refill them.
func (bk *buckets) layout() {
	total := int32(0)
	for b, c := range bk.cnt {
		bk.start[b] = total
		total += c
		bk.cnt[b] = 0
	}
	if cap(bk.buf) < int(total) {
		bk.buf = make([]affine, total)
		bk.den = make([]fe, total/2)
		bk.inv = make([]fe, total/2)
	}
	bk.buf = bk.buf[:total]
}

// put appends p, or −p when neg, to bucket b.
func (bk *buckets) put(b int, p *affine, neg bool) {
	e := &bk.buf[bk.start[b]+bk.cnt[b]]
	bk.cnt[b]++
	e.x = p.x
	if neg {
		feSub(&e.y, &fe{}, &p.y)
	} else {
		e.y = p.y
	}
}

// reduce adds up each bucket until it holds at most one point. Every level
// pairs neighbours within a bucket and adds each pair in affine
// coordinates; the level's denominators share one feInv. Equal x is a
// doubling when y agrees too, and otherwise P + (−P), which drops out.
func (bk *buckets) reduce() {
	for {
		np := 0
		prod := feOne
		for b, c := range bk.cnt {
			for i := bk.start[b]; i+1 < bk.start[b]+c; i += 2 {
				p, q := &bk.buf[i], &bk.buf[i+1]
				d := &bk.den[np]
				switch {
				case p.x != q.x:
					feSub(d, &q.x, &p.x)
				case p.y == q.y:
					feAdd(d, &p.y, &p.y)
				default:
					*d = feOne
				}
				bk.inv[np] = prod // the product of the denominators before this one
				feMul(&prod, &prod, d)
				np++
			}
		}
		if np == 0 {
			return
		}
		var inv fe
		feInv(&inv, &prod)
		for k := np - 1; k >= 0; k-- {
			feMul(&bk.inv[k], &bk.inv[k], &inv)
			feMul(&inv, &inv, &bk.den[k])
		}
		k := 0
		for b, c := range bk.cnt {
			s, e := bk.start[b], bk.start[b]+c
			w := s
			for i := s; i+1 < e; i += 2 {
				if affineAdd(&bk.buf[w], &bk.buf[i], &bk.buf[i+1], &bk.inv[k]) {
					w++
				}
				k++
			}
			if c%2 == 1 {
				bk.buf[w] = bk.buf[e-1]
				w++
			}
			bk.cnt[b] = w - s
		}
	}
}

// affineAdd sets out = p + q given inv, the inverse of reduce's denominator
// for the pair, and reports false (leaving out alone) when the sum is the
// point at infinity. out may alias p or q.
func affineAdd(out, p, q *affine, inv *fe) bool {
	var lambda, t fe
	switch {
	case p.x != q.x: // λ = (y₂ − y₁) / (x₂ − x₁)
		feSub(&t, &q.y, &p.y)
		feMul(&lambda, &t, inv)
	case p.y == q.y: // λ = (3x² − 3) / 2y, the doubling slope for a = −3
		feSqr(&t, &p.x)
		feSub(&t, &t, &feOne)
		feAdd(&lambda, &t, &t)
		feAdd(&t, &lambda, &t)
		feMul(&lambda, &t, inv)
	default:
		return false
	}
	var x3, y3 fe
	feSqr(&x3, &lambda)
	feSub(&x3, &x3, &p.x)
	feSub(&x3, &x3, &q.x)
	feSub(&t, &p.x, &x3)
	feMul(&y3, &lambda, &t)
	feSub(&y3, &y3, &p.y)
	out.x, out.y = x3, y3
	return true
}

// weightedSum returns Σ d·bucket[off+d−1] over d = 1 … half by suffix sums:
// running accumulates the suffix, sum accumulates Σ running.
func (bk *buckets) weightedSum(off, half int) jacPoint {
	var running, sum jacPoint
	for b := off + half - 1; b >= off; b-- {
		if bk.cnt[b] == 1 {
			p := &bk.buf[bk.start[b]]
			running.addMixed(&p.x, &p.y)
		}
		sum.add(&running)
	}
	return sum
}

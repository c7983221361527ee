package group

import (
	"fmt"
	"math/big"
	"testing"
)

var fbTestBase = HashToPoint("ddemos/test/fixed-base", nil)

// fbTestTable is built once for the package's tests and benchmarks.
var fbTestTable = NewFixedBase(fbTestBase)

// edgeScalars are the scalars the window walk is most likely to get wrong:
// the ends of [0, q), just past q, the largest 256-bit value, a scalar whose
// windows are all zero but the top one, and scalars whose windows are all
// at their maximum digit.
func edgeScalars() []*big.Int {
	one := big.NewInt(1)
	pow := func(n uint) *big.Int { return new(big.Int).Lsh(one, n) }
	sub := func(a, b *big.Int) *big.Int { return new(big.Int).Sub(a, b) }
	return []*big.Int{
		big.NewInt(0), one, big.NewInt(31), big.NewInt(32),
		sub(q, one), sub(q, big.NewInt(2)), new(big.Int).Set(q), new(big.Int).Add(q, one),
		sub(pow(256), one),
		pow(255), pow(250),
		sub(pow(255), one), // windows 0–50 at digit 31
		sub(pow(250), one),
	}
}

func TestFixedBaseMulAddMatchesAffine(t *testing.T) {
	rnd := newDetRand("fixed-base-diff")
	g := Base()
	var terms []Term
	for _, k := range edgeScalars() {
		terms = append(terms, Term{K: k})
	}
	for i := 0; i < 24; i++ {
		k, err := RandScalar(rnd)
		if err != nil {
			t.Fatal(err)
		}
		c, err := RandScalar(rnd)
		if err != nil {
			t.Fatal(err)
		}
		add := BaseMul(c)
		if i%3 == 0 {
			add = g
		}
		terms = append(terms, Term{K: k, Add: add, Mask: i % 2})
	}
	// Zero scalar with an addend: the accumulator is at infinity when the
	// addend arrives. An identity addend counts as no addend.
	terms = append(terms, Term{K: big.NewInt(0), Add: g, Mask: 1}, Term{K: big.NewInt(7), Mask: 1})
	out := make([]Point, len(terms))
	fbTestTable.MulAdd(out, terms)
	for i, tm := range terms {
		want := fbTestBase.Mul(tm.K)
		if tm.Mask == 1 {
			want = want.Add(tm.Add)
		}
		if !out[i].Equal(want) {
			t.Fatalf("term %d (k=%x, mask %d): table and affine disagree", i, tm.K, tm.Mask)
		}
	}
}

// TestFixedBaseNeverHitsExceptionalCase replays FixedBase.mul's window walk
// and checks, at every addition that is not masked away, that the
// accumulator is not ±the table entry (madd's h ≠ 0): the incomplete
// formula is exact for every scalar below q.
func TestFixedBaseNeverHitsExceptionalCase(t *testing.T) {
	fbTestTable.once.Do(fbTestTable.build)
	rnd := newDetRand("fixed-base-exceptional")
	scalars := edgeScalars()
	for i := 0; i < 64; i++ {
		k, err := RandScalar(rnd)
		if err != nil {
			t.Fatal(err)
		}
		scalars = append(scalars, k)
	}
	for _, k := range scalars {
		kk := scalarLimbs(k)
		var acc jacPoint
		var e affine
		for w := 0; w < fbWindows; w++ {
			d := msmDigit(&kk, w*fbWindow, fbWindow)
			fbTestTable.lookup(&e, w, d)
			if d != 0 && !acc.isInf() {
				var sum jacPoint
				if h, _ := acc.madd(&sum, &e.x, &e.y); feIsZero(&h) {
					t.Fatalf("k=%x window %d: accumulator is ±entry", k, w)
				}
			}
			acc.addMixedMasked(&e, ^ctEqMask(d, 0))
		}
		if got, want := acc.toAffine(), fbTestBase.Mul(k); !got.Equal(want) {
			t.Fatalf("k=%x: walk result differs from Point.Mul", k)
		}
	}
}

// FuzzFixedBaseMul: the constant-time table agrees with Point.Mul for any
// scalar of up to 32 bytes, below q or not (both reduce mod q).
func FuzzFixedBaseMul(f *testing.F) {
	for _, k := range edgeScalars() {
		f.Add(k.Bytes())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 32 { // MulAdd takes scalars below 2^256
			t.Skip()
		}
		k := new(big.Int).SetBytes(b)
		out := make([]Point, 1)
		fbTestTable.MulAdd(out, []Term{{K: k}})
		if want := fbTestBase.Mul(k); !out[0].Equal(want) {
			t.Fatalf("k=%x: table and Point.Mul disagree", k)
		}
	})
}

// BenchmarkFixedBaseMul times secret-scalar multiplications of one base,
// per multiplication: alone (n=1, paying a whole inversion) and in a batch
// of 13, the P-multiples of one four-option ballot row sharing one.
func BenchmarkFixedBaseMul(b *testing.B) {
	rnd := newDetRand("fixed-base-bench")
	fbTestTable.MulAdd(make([]Point, 1), []Term{{K: big.NewInt(1)}}) // build outside the timing
	for _, n := range []int{1, 13} {
		terms := make([]Term, n)
		for i := range terms {
			terms[i].K, _ = RandScalar(rnd)
		}
		out := make([]Point, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fbTestTable.MulAdd(out, terms)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n)/1e3, "µs/mul")
		})
	}
}

package group

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

func TestBasePointOnCurve(t *testing.T) {
	g := Base()
	if g.IsIdentity() {
		t.Fatal("base point must not be identity")
	}
	if !g.Equal(Base()) {
		t.Fatal("Base() not stable")
	}
}

func TestAddSubNeg(t *testing.T) {
	k1, _ := RandScalar(rand.Reader)
	k2, _ := RandScalar(rand.Reader)
	p1 := BaseMul(k1)
	p2 := BaseMul(k2)

	sum := p1.Add(p2)
	want := BaseMul(AddScalar(k1, k2))
	if !sum.Equal(want) {
		t.Fatal("point addition does not match scalar addition")
	}
	if !sum.Sub(p2).Equal(p1) {
		t.Fatal("subtraction is not inverse of addition")
	}
	if !p1.Add(p1.Neg()).IsIdentity() {
		t.Fatal("p + (-p) must be identity")
	}
}

func TestIdentityLaws(t *testing.T) {
	var id Point
	k, _ := RandScalar(rand.Reader)
	p := BaseMul(k)
	if !id.Add(p).Equal(p) || !p.Add(id).Equal(p) {
		t.Fatal("identity must be neutral for addition")
	}
	if !p.Mul(big.NewInt(0)).IsIdentity() {
		t.Fatal("0*p must be identity")
	}
	if !id.Mul(k).IsIdentity() {
		t.Fatal("k*identity must be identity")
	}
}

func TestMulMatchesRepeatedAdd(t *testing.T) {
	p := Base()
	acc := Point{}
	for i := 1; i <= 8; i++ {
		acc = acc.Add(p)
		if !acc.Equal(Base().Mul(big.NewInt(int64(i)))) {
			t.Fatalf("k=%d: repeated addition disagrees with Mul", i)
		}
	}
}

func TestBaseMulMatchesMul(t *testing.T) {
	for i := 0; i < 16; i++ {
		k, _ := RandScalar(rand.Reader)
		if !BaseMul(k).Equal(Base().Mul(k)) {
			t.Fatal("BaseMul disagrees with generic Mul")
		}
	}
}

func TestPointEncodingRoundTrip(t *testing.T) {
	cases := []Point{{}, Base(), HashToPoint("test/encoding", nil)}
	k, _ := RandScalar(rand.Reader)
	cases = append(cases, BaseMul(k))
	for _, p := range cases {
		got, err := DecodePoint(p.Bytes())
		if err != nil {
			t.Fatalf("decode(%v): %v", p, err)
		}
		if !got.Equal(p) {
			t.Fatalf("round trip changed point %v", p)
		}
	}
}

func TestDecodePointRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {1}, {2, 3}, bytes.Repeat([]byte{0xff}, 33)} {
		if _, err := DecodePoint(b); err == nil {
			t.Fatalf("decode(%x) should fail", b)
		}
	}
}

func TestScalarEncodingRoundTrip(t *testing.T) {
	for i := 0; i < 16; i++ {
		k, _ := RandScalar(rand.Reader)
		got, err := DecodeScalar(ScalarBytes(k))
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(k) != 0 {
			t.Fatal("scalar round trip mismatch")
		}
	}
	// ScalarBytes reduces mod q, so q encodes as 0 and decodes successfully.
	zero, err := DecodeScalar(ScalarBytes(Order()))
	if err != nil || zero.Sign() != 0 {
		t.Fatal("q must reduce to the zero scalar")
	}
}

func TestDecodeScalarRejectsOutOfRange(t *testing.T) {
	raw := make([]byte, 32)
	Order().FillBytes(raw)
	if _, err := DecodeScalar(raw); err == nil {
		t.Fatal("scalar >= q must be rejected")
	}
	if _, err := DecodeScalar([]byte{1, 2, 3}); err == nil {
		t.Fatal("short encoding must be rejected")
	}
}

func TestHashToPointDomainSeparation(t *testing.T) {
	p1 := HashToPoint("a", []byte("x"))
	p2 := HashToPoint("b", []byte("x"))
	p3 := HashToPoint("a", []byte("y"))
	if p1.Equal(p2) || p1.Equal(p3) {
		t.Fatal("different domains/messages must give different points")
	}
	if p1.IsIdentity() || p1.Equal(Base()) || !p1.Equal(HashToPoint("a", []byte("x"))) {
		t.Fatal("a hash-derived generator must be deterministic, non-trivial and not G")
	}
}

func TestHashToScalarStable(t *testing.T) {
	a := HashToScalar("d", []byte("m1"), []byte("m2"))
	b := HashToScalar("d", []byte("m1"), []byte("m2"))
	if a.Cmp(b) != 0 {
		t.Fatal("HashToScalar must be deterministic")
	}
	// Length prefixing: ("ab","c") != ("a","bc").
	c := HashToScalar("d", []byte("ab"), []byte("c"))
	d := HashToScalar("d", []byte("a"), []byte("bc"))
	if c.Cmp(d) == 0 {
		t.Fatal("chunk boundaries must be domain separated")
	}
}

func TestScalarFieldProperties(t *testing.T) {
	f := func(a0, b0, c0 int64) bool {
		a, b, c := big.NewInt(a0), big.NewInt(b0), big.NewInt(c0)
		// distributivity: a*(b+c) == a*b + a*c (mod q)
		left := MulScalar(a, AddScalar(b, c))
		right := AddScalar(MulScalar(a, b), MulScalar(a, c))
		return left.Cmp(right) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInvScalar(t *testing.T) {
	k, _ := RandScalar(rand.Reader)
	if k.Sign() == 0 {
		k = big.NewInt(1)
	}
	inv, err := InvScalar(k)
	if err != nil {
		t.Fatal(err)
	}
	if MulScalar(k, inv).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("k * k^-1 != 1")
	}
	if _, err := InvScalar(big.NewInt(0)); err == nil {
		t.Fatal("inverse of zero must fail")
	}
}

func TestDRBGDeterministic(t *testing.T) {
	a := NewDRBG([]byte("seed"))
	b := NewDRBG([]byte("seed"))
	ba := make([]byte, 100)
	bb := make([]byte, 100)
	if _, err := a.Read(ba); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Fatal("same seed must give same stream")
	}
	c := NewDRBG([]byte("other"))
	bc := make([]byte, 100)
	if _, err := c.Read(bc); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ba, bc) {
		t.Fatal("different seeds must differ")
	}
}

func TestDRBGScalarSampling(t *testing.T) {
	d := NewDRBG([]byte("scalars"))
	seen := map[string]bool{}
	for i := 0; i < 32; i++ {
		k, err := RandScalar(d)
		if err != nil {
			t.Fatal(err)
		}
		s := string(ScalarBytes(k))
		if seen[s] {
			t.Fatal("duplicate scalar from DRBG")
		}
		seen[s] = true
	}
}

func BenchmarkBaseMul(b *testing.B) {
	k, _ := RandScalar(rand.Reader)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BaseMul(k)
	}
}

func BenchmarkPointMul(b *testing.B) {
	k, _ := RandScalar(rand.Reader)
	p := HashToPoint("bench/point-mul", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Mul(k)
	}
}

package group

import (
	"crypto/sha256"
	"math/big"
	"testing"
)

// detRand yields deterministic pseudo-random bytes for test vectors.
type detRand struct {
	state [32]byte
	buf   []byte
}

func newDetRand(seed string) *detRand {
	return &detRand{state: sha256.Sum256([]byte(seed))}
}

func (d *detRand) Read(p []byte) (int, error) {
	for i := range p {
		if len(d.buf) == 0 {
			d.state = sha256.Sum256(d.state[:])
			d.buf = append(d.buf[:0], d.state[:]...)
		}
		p[i] = d.buf[0]
		d.buf = d.buf[1:]
	}
	return len(p), nil
}

func TestFieldArithmeticMatchesBigInt(t *testing.T) {
	p := curve.Params().P
	rnd := newDetRand("field-diff")
	vals := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(p, big.NewInt(1)),
		new(big.Int).Sub(p, big.NewInt(2)),
	}
	for i := 0; i < 20; i++ {
		v, err := RandScalar(rnd)
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, v.Mod(v, p))
	}
	for i, a := range vals {
		am := feToMont(a)
		if got := feToBig(&am); got.Cmp(a) != 0 {
			t.Fatalf("roundtrip %d: got %v want %v", i, got, a)
		}
		var inv fe
		feInv(&inv, &am)
		wantInv := new(big.Int).ModInverse(a, p)
		if wantInv == nil {
			wantInv = new(big.Int) // feInv maps 0 to 0
		}
		if got := feToBig(&inv); got.Cmp(wantInv) != 0 {
			t.Fatalf("inv %d: got %v want %v", i, got, wantInv)
		}
		for j, b := range vals {
			bm := feToMont(b)
			var s, d, m fe
			feAdd(&s, &am, &bm)
			feSub(&d, &am, &bm)
			feMul(&m, &am, &bm)
			wantS := new(big.Int).Mod(new(big.Int).Add(a, b), p)
			wantD := new(big.Int).Mod(new(big.Int).Sub(a, b), p)
			wantM := new(big.Int).Mod(new(big.Int).Mul(a, b), p)
			if got := feToBig(&s); got.Cmp(wantS) != 0 {
				t.Fatalf("add %d+%d: got %v want %v", i, j, got, wantS)
			}
			if got := feToBig(&d); got.Cmp(wantD) != 0 {
				t.Fatalf("sub %d-%d: got %v want %v", i, j, got, wantD)
			}
			if got := feToBig(&m); got.Cmp(wantM) != 0 {
				t.Fatalf("mul %d*%d: got %v want %v", i, j, got, wantM)
			}
		}
	}
}

func TestJacobianMatchesAffine(t *testing.T) {
	rnd := newDetRand("jacobian-diff")
	pts := make([]Point, 6)
	for i := range pts {
		k, err := RandScalar(rnd)
		if err != nil {
			t.Fatal(err)
		}
		pts[i] = BaseMul(k)
	}
	for i, a := range pts {
		var ja jacPoint
		ja.x, ja.y, ja.z = feToMont(a.x), feToMont(a.y), feOne

		dbl := ja
		dbl.double()
		if got, want := dbl.toAffine(), a.Add(a); !got.Equal(want) {
			t.Fatalf("double %d mismatch", i)
		}
		for j, b := range pts {
			ax, ay := feToMont(b.x), feToMont(b.y)
			mix := ja
			mix.addMixed(&ax, &ay)
			want := a.Add(b)
			if got := mix.toAffine(); !got.Equal(want) {
				t.Fatalf("addMixed %d+%d mismatch", i, j)
			}
			var jb jacPoint
			jb.x, jb.y, jb.z = feToMont(b.x), feToMont(b.y), feOne
			// Give the operands distinct Z to exercise the general path.
			gen := ja
			gen.double()
			gen.add(&jb)
			if got, want := gen.toAffine(), a.Add(a).Add(b); !got.Equal(want) {
				t.Fatalf("add %d+%d mismatch", i, j)
			}
		}
		// P + (-P) must hit infinity in both formulas.
		neg := a.Neg()
		nx, ny := feToMont(neg.x), feToMont(neg.y)
		inf := ja
		inf.addMixed(&nx, &ny)
		if !inf.isInf() {
			t.Fatalf("addMixed P+(-P) not infinity")
		}
		var jn jacPoint
		jn.x, jn.y, jn.z = nx, ny, feOne
		inf2 := ja
		inf2.add(&jn)
		if !inf2.isInf() {
			t.Fatalf("add P+(-P) not infinity")
		}
	}
}

func msmNaive(points []Point, scalars []*big.Int) Point {
	var acc Point
	for i := range points {
		acc = acc.Add(points[i].Mul(scalars[i]))
	}
	return acc
}

func TestMultiScalarMulVartimeMatchesNaive(t *testing.T) {
	rnd := newDetRand("msm-diff")
	for _, n := range []int{1, 2, 3, 7, 17, 40, 65, 130} {
		points := make([]Point, n)
		scalars := make([]*big.Int, n)
		for i := range points {
			k, err := RandScalar(rnd)
			if err != nil {
				t.Fatal(err)
			}
			points[i] = BaseMul(k)
			s, err := RandScalar(rnd)
			if err != nil {
				t.Fatal(err)
			}
			scalars[i] = s
		}
		// Fold in edge cases: identity point, zero scalar, scalar >= q,
		// tiny scalar, a point/-point pair with equal scalars.
		if n >= 7 {
			points[0] = Point{}
			scalars[1] = big.NewInt(0)
			scalars[2] = new(big.Int).Add(Order(), big.NewInt(5))
			scalars[3] = big.NewInt(1)
			points[4] = points[5].Neg()
			scalars[4] = new(big.Int).Set(scalars[5])
			points[6] = points[5]
		}
		want := msmNaive(points, scalars)
		got := MultiScalarMulVartime(points, scalars)
		if !got.Equal(want) {
			t.Fatalf("n=%d: msm mismatch", n)
		}
	}
}

func TestMultiScalarMulVartimeDegenerate(t *testing.T) {
	if got := MultiScalarMulVartime(nil, nil); !got.IsIdentity() {
		t.Fatal("empty msm should be identity")
	}
	g := Base()
	if got := MultiScalarMulVartime([]Point{g}, []*big.Int{big.NewInt(0)}); !got.IsIdentity() {
		t.Fatal("zero-scalar msm should be identity")
	}
	if got := MultiScalarMulVartime([]Point{{}}, []*big.Int{big.NewInt(3)}); !got.IsIdentity() {
		t.Fatal("identity-point msm should be identity")
	}
	// Cancelling pair: k·G + k·(-G) = identity.
	k := big.NewInt(123456789)
	if got := MultiScalarMulVartime([]Point{g, g.Neg()}, []*big.Int{k, k}); !got.IsIdentity() {
		t.Fatal("cancelling msm should be identity")
	}
	// Single huge-bit-length scalar: q-1.
	qm1 := new(big.Int).Sub(Order(), big.NewInt(1))
	if got := MultiScalarMulVartime([]Point{g}, []*big.Int{qm1}); !got.Equal(BaseMul(qm1)) {
		t.Fatal("q-1 msm mismatch")
	}
}

func BenchmarkMultiScalarMul(b *testing.B) {
	rnd := newDetRand("msm-bench")
	const n = 2048
	points := make([]Point, n)
	scalars := make([]*big.Int, n)
	for i := range points {
		k, _ := RandScalar(rnd)
		points[i] = BaseMul(k)
		s, _ := RandScalar(rnd)
		scalars[i] = new(big.Int).Rsh(s, 128) // 128-bit like batch γ
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MultiScalarMulVartime(points, scalars)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/point")
}

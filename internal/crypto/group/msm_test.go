package group

import (
	"crypto/sha256"
	"fmt"
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

// msmDoubleAndAdd is the reference for the bucket method: one left-to-right
// double-and-add over all points at once, on the Jacobian formulas that
// TestJacobianMatchesAffine checks against the standard library.
func msmDoubleAndAdd(points []Point, scalars []*big.Int) Point {
	var acc jacPoint
	for bit := 255; bit >= 0; bit-- {
		acc.double()
		for i, p := range points {
			if !p.IsIdentity() && new(big.Int).Mod(scalars[i], q).Bit(bit) == 1 {
				x, y := feToMont(p.x), feToMont(p.y)
				acc.addMixed(&x, &y)
			}
		}
	}
	return acc.toAffine()
}

// tableWidths is every window width msmWidths can pick.
func tableWidths() []int {
	var cs []int
	for _, w := range msmWidths {
		cs = append(cs, w.c)
	}
	return cs
}

// msmWidth is MultiScalarMulVartime with the window width c forced.
func msmWidth(points []Point, scalars []*big.Int, c int) Point {
	pts, ks, maxBits := msmInputs(points, scalars)
	if len(pts) == 0 {
		return Point{}
	}
	acc := pippenger(pts, ks, maxBits, c)
	return acc.toAffine()
}

// checkMSM compares the MSM at every width the table can pick, and at the
// width it does pick, with the double-and-add reference.
func checkMSM(t *testing.T, name string, points []Point, scalars []*big.Int) {
	t.Helper()
	want := msmDoubleAndAdd(points, scalars)
	if got := MultiScalarMulVartime(points, scalars); !got.Equal(want) {
		t.Fatalf("%s: MultiScalarMulVartime differs from double-and-add", name)
	}
	for _, c := range tableWidths() {
		if got := msmWidth(points, scalars, c); !got.Equal(want) {
			t.Fatalf("%s, c=%d: bucket method differs from double-and-add", name, c)
		}
	}
}

// TestMultiScalarMulBucketCollisions is the table of inputs that put equal
// or opposite points into one bucket, where a tree level's affine addition
// must double or cancel instead of dividing by zero, and of the scalars the
// signed recoding is most likely to get wrong.
func TestMultiScalarMulBucketCollisions(t *testing.T) {
	rnd := newDetRand("msm-collisions")
	rand := func() *big.Int {
		k, err := RandScalar(rnd)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	one := big.NewInt(1)
	pow := func(n uint) *big.Int { return new(big.Int).Lsh(one, n) }
	bits := func(n uint) *big.Int { return new(big.Int).Rsh(rand(), 256-n) }
	p, r := BaseMul(rand()), BaseMul(rand())
	repeat := func(pt Point, n int) []Point {
		out := make([]Point, n)
		for i := range out {
			out[i] = pt
		}
		return out
	}
	same := func(k *big.Int, n int) []*big.Int {
		out := make([]*big.Int, n)
		for i := range out {
			out[i] = k
		}
		return out
	}
	randoms := func(n int) []*big.Int {
		out := make([]*big.Int, n)
		for i := range out {
			out[i] = rand()
		}
		return out
	}
	// Bucket 1 of window 0 gets P from digit 1 and −P from digit −1, which
	// is what 2^c − 1 recodes to at every width c.
	var oppositeDigits []*big.Int
	var oppositePoints []Point
	for _, c := range tableWidths() {
		oppositeDigits = append(oppositeDigits, one, new(big.Int).Sub(pow(uint(c)), one))
		oppositePoints = append(oppositePoints, p, p)
	}
	edges := []*big.Int{
		new(big.Int).Sub(q, one), new(big.Int).Set(q), new(big.Int).Add(q, one),
		new(big.Int).Add(q, q), new(big.Int).Sub(pow(256), one), big.NewInt(-5),
		bits(127), bits(128), bits(129), bits(255), bits(256),
		pow(127), pow(128), pow(255), new(big.Int).Sub(pow(128), one),
	}
	cases := []struct {
		name    string
		points  []Point
		scalars []*big.Int
	}{
		{"all-equal points", repeat(p, 64), randoms(64)},
		{"equal points, equal digits (doubling)", repeat(p, 33), same(rand(), 33)},
		{"equal points, equal 128-bit digits", repeat(r, 40), same(bits(128), 40)},
		{"P and −P, equal scalars (cancellation)", []Point{p, p.Neg(), p, p.Neg(), r}, same(rand(), 5)},
		{"P and −P in one bucket via a negative digit", oppositePoints, oppositeDigits},
		{"three equal points and one opposite", []Point{p, p, p, p.Neg()}, same(big.NewInt(7), 4)},
		{"identity points and zero scalars", []Point{{}, p, {}, r, p},
			[]*big.Int{rand(), new(big.Int), big.NewInt(3), new(big.Int).Set(q), rand()}},
		{"only identity points and zero scalars", []Point{{}, p, {}}, []*big.Int{rand(), new(big.Int), big.NewInt(3)}},
		{"edge scalars on distinct points", func() []Point {
			out := make([]Point, len(edges))
			for i := range out {
				out[i] = BaseMul(rand())
			}
			return out
		}(), edges},
		{"edge scalars on one point", repeat(p, len(edges)), edges},
		{"a single point", []Point{r}, []*big.Int{new(big.Int).Sub(q, one)}},
	}
	for _, tc := range cases {
		checkMSM(t, tc.name, tc.points, tc.scalars)
	}
}

// FuzzMultiScalarMul checks the bucket method against double-and-add on
// inputs built to collide: each byte of pts picks the identity, G, or one
// of two points or their negatives, so buckets fill with equal and opposite
// points; ks spells the scalars (see fuzzScalar); c picks the window width
// among those the table can choose.
func FuzzMultiScalarMul(f *testing.F) {
	one := big.NewInt(1)
	pow := func(n uint) *big.Int { return new(big.Int).Lsh(one, n) }
	below := func(n uint) *big.Int { return new(big.Int).Sub(pow(n), one) }
	spell := func(ks ...*big.Int) []byte {
		var out []byte
		for _, k := range ks {
			n := max(1, (k.BitLen()+7)/8)
			out = append(out, byte(5+8*(n-1)))
			out = append(out, k.FillBytes(make([]byte, n))...)
		}
		return out
	}
	x := new(big.Int).SetBytes([]byte("sixteen byte val"))
	f.Add([]byte{1, 1, 1, 1}, spell(x, x, x, x), uint8(0))              // equal points, equal digits
	f.Add([]byte{1, 4, 1, 4, 2, 5}, []byte{1, 1, 1, 1, 1, 1}, uint8(3)) // P and −P, all q−1
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, append([]byte{0, 1, 2, 3, 4}, spell(pow(127), below(128), below(129))...), uint8(5))
	f.Add([]byte{1, 2, 3, 5, 6, 7}, spell(below(127), pow(127), below(129), pow(128), pow(255), below(256)), uint8(7))
	f.Add([]byte{3, 3, 3, 6}, spell(below(255), below(255), pow(255), below(256)), uint8(2))
	f.Add([]byte{1, 1}, spell(one, below(9)), uint8(7)) // digits 1 and −1 in one bucket at width 9
	f.Fuzz(func(t *testing.T, pts, ks []byte, c uint8) {
		if len(pts) > 24 {
			t.Skip()
		}
		pool := fuzzPool()
		points := make([]Point, len(pts))
		scalars := make([]*big.Int, len(pts))
		for i, b := range pts {
			points[i] = pool[int(b)%len(pool)]
			scalars[i], ks = fuzzScalar(ks)
		}
		cs := tableWidths()
		width := cs[int(c)%len(cs)]
		want := msmDoubleAndAdd(points, scalars)
		if got := msmWidth(points, scalars, width); !got.Equal(want) {
			t.Fatalf("c=%d: bucket method differs from double-and-add", width)
		}
		if got := MultiScalarMulVartime(points, scalars); !got.Equal(want) {
			t.Fatal("MultiScalarMulVartime differs from double-and-add")
		}
	})
}

// fuzzPool is the fuzzer's point alphabet: identity, two points, G and the
// negatives of all three.
func fuzzPool() []Point {
	a := HashToPoint("ddemos/test/msm-fuzz", []byte{0})
	b := HashToPoint("ddemos/test/msm-fuzz", []byte{1})
	g := Base()
	return []Point{{}, a, b, g, a.Neg(), b.Neg(), g.Neg(), a}
}

// fuzzScalar reads one scalar off the front of ks: a tag byte t, then by
// t%8 zero, q−1, q, q+1, 2^256−1, or the next (t>>3)+1 bytes big-endian —
// so the length of a spelled scalar, up to 256 bits, is under the
// fuzzer's control. Missing bytes are left out, and no bytes spell zero.
func fuzzScalar(ks []byte) (*big.Int, []byte) {
	if len(ks) == 0 {
		return new(big.Int), ks
	}
	t, ks := ks[0], ks[1:]
	one := big.NewInt(1)
	switch t % 8 {
	case 0:
		return new(big.Int), ks
	case 1:
		return new(big.Int).Sub(q, one), ks
	case 2:
		return new(big.Int).Set(q), ks
	case 3:
		return new(big.Int).Add(q, one), ks
	case 4:
		return new(big.Int).Sub(new(big.Int).Lsh(one, 256), one), ks
	}
	n := min(int(t>>3)+1, len(ks))
	return new(big.Int).SetBytes(ks[:n]), ks[n:]
}

// boardMix returns n points with the scalars zkp.Batch gives the MSM: a
// 128-bit γ on two of every three points and a 256-bit product of γ and a
// challenge on the third, as in a bit proof's six terms.
func boardMix(n int) ([]Point, []*big.Int) {
	rnd := newDetRand("msm-bench")
	points := make([]Point, n)
	scalars := make([]*big.Int, n)
	for i := range points {
		k, _ := RandScalar(rnd)
		points[i] = BaseMul(k)
		s, _ := RandScalar(rnd)
		if i%3 != 2 {
			s.Rsh(s, 128)
		}
		scalars[i] = s
	}
	return points, scalars
}

// msmSink keeps the benchmarks' results alive.
var msmSink Point

// BenchmarkMultiScalarMul times the MSM per point on the board's scalar mix
// at the sizes a verifying chunk feeds it.
func BenchmarkMultiScalarMul(b *testing.B) {
	for _, n := range []int{2048, 8192, 16384} {
		points, scalars := boardMix(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				msmSink = MultiScalarMulVartime(points, scalars)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
		})
	}
}

// BenchmarkMultiScalarMulWindow sweeps the window width around the table's
// choice at each size on the board's mix: the measurement msmWidths is
// read from. Run it with -cpu 1.
func BenchmarkMultiScalarMulWindow(b *testing.B) {
	for _, n := range []int{3, 8, 24, 64, 200, 512, 1024, 2048, 4096, 8192, 16384, 32768} {
		points, scalars := boardMix(n)
		pts, ks, maxBits := msmInputs(points, scalars)
		for c := max(2, windowBits(n)-2); c <= windowBits(n)+2; c++ {
			b.Run(fmt.Sprintf("n=%d/c=%d", n, c), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					acc := pippenger(pts, ks, maxBits, c)
					msmSink = acc.toAffine()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
			})
		}
	}
}

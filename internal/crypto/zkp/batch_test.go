package zkp

import (
	"fmt"
	"io"
	"math/big"
	"reflect"
	"testing"

	"ddemos/internal/crypto/elgamal"
	"ddemos/internal/crypto/group"
)

// stmt is one publish-phase statement of any kind, with its per-element
// verifier (the oracle) and its batch form side by side.
type stmt struct {
	kind string // "opening" | "bit" | "sum"
	c    *big.Int

	ct   elgamal.Ciphertext // opening, bit
	m, r *big.Int           // opening

	bitCom BitCommit
	bitFin BitFinal

	cts    elgamal.VectorCiphertext // sum
	k      int
	sumCom SumCommit
	sumFin SumFinal
}

func (s *stmt) add(b *Batch) {
	switch s.kind {
	case "opening":
		b.AddOpening(s.ct, s.m, s.r)
	case "bit":
		b.AddBit(s.ct, s.bitCom, s.bitFin, s.c)
	default:
		b.AddSum(s.cts, s.k, s.sumCom, s.sumFin, s.c)
	}
}

func (s *stmt) ok() bool {
	switch s.kind {
	case "opening":
		return key.VerifyOpening(s.ct, s.m, s.r)
	case "bit":
		return VerifyBit(key, s.ct, s.bitCom, s.bitFin, s.c)
	default:
		return VerifySum(key, s.cts, s.k, s.sumCom, s.sumFin, s.c)
	}
}

// newStmt builds a valid statement of the given kind from rnd.
func newStmt(t testing.TB, kind string, i int, rnd io.Reader) *stmt {
	t.Helper()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	s := &stmt{kind: kind, c: DeriveChallenge([]byte("batch-test"), uint64(i), 0, i, 0)}
	switch kind {
	case "opening":
		var err error
		s.m = big.NewInt(int64(i % 3))
		s.ct, s.r, err = encryptRef(key, s.m, rnd)
		must(err)
	case "bit":
		bit := i % 2
		ct, r, err := encryptRef(key, big.NewInt(int64(bit)), rnd)
		must(err)
		com, cf, err := newBitProofRef(key, ct, bit, r, rnd)
		must(err)
		s.ct, s.bitCom, s.bitFin = ct, com, cf.Finalize(s.c)
	case "sum":
		cts, op, err := encryptUnitVectorRef(key, 3, i%3, rnd)
		must(err)
		rSum := new(big.Int)
		for _, r := range op.Rs {
			rSum = group.AddScalar(rSum, r)
		}
		com, cf, err := newSumProofRef(key, rSum, rnd)
		must(err)
		s.cts, s.k, s.sumCom, s.sumFin = cts, 1, com, cf.Finalize(s.c)
	}
	return s
}

// inc returns v+1; nil (an earlier mutation) stays nil.
func inc(v *big.Int) *big.Int {
	if v == nil {
		return nil
	}
	return new(big.Int).Add(v, big.NewInt(1))
}

func dbl(p group.Point) group.Point { return p.Add(p) }

// dblElem doubles one coordinate of one element of a copy of s.cts.
func dblElem(s *stmt, i int, a bool) {
	if i >= len(s.cts) {
		return
	}
	s.cts = append(elgamal.VectorCiphertext(nil), s.cts...)
	if a {
		s.cts[i].A = dbl(s.cts[i].A)
	} else {
		s.cts[i].B = dbl(s.cts[i].B)
	}
}

// mutations lists, per kind, every single-field change that must turn a
// valid statement into an invalid one.
var mutations = map[string][]struct {
	name  string
	apply func(s *stmt)
}{
	"opening": {
		{"m", func(s *stmt) { s.m = inc(s.m) }},
		{"r", func(s *stmt) { s.r = inc(s.r) }},
		{"A", func(s *stmt) { s.ct.A = dbl(s.ct.A) }},
		{"B", func(s *stmt) { s.ct.B = dbl(s.ct.B) }},
	},
	"bit": {
		{"C0", func(s *stmt) { s.bitFin.C0 = inc(s.bitFin.C0) }},
		{"C0/C1 shifted, sum kept", func(s *stmt) {
			s.bitFin.C0 = inc(s.bitFin.C0)
			s.bitFin.C1 = group.SubScalar(s.bitFin.C1, big.NewInt(1))
		}},
		{"Z0", func(s *stmt) { s.bitFin.Z0 = inc(s.bitFin.Z0) }},
		{"Z1", func(s *stmt) { s.bitFin.Z1 = inc(s.bitFin.Z1) }},
		{"nil Z1", func(s *stmt) { s.bitFin.Z1 = nil }},
		{"T0A", func(s *stmt) { s.bitCom.T0A = dbl(s.bitCom.T0A) }},
		{"T0B", func(s *stmt) { s.bitCom.T0B = dbl(s.bitCom.T0B) }},
		{"T1A", func(s *stmt) { s.bitCom.T1A = dbl(s.bitCom.T1A) }},
		{"T1B", func(s *stmt) { s.bitCom.T1B = dbl(s.bitCom.T1B) }},
		{"A", func(s *stmt) { s.ct.A = dbl(s.ct.A) }},
		{"B", func(s *stmt) { s.ct.B = dbl(s.ct.B) }},
		{"challenge", func(s *stmt) { s.c = inc(s.c) }},
	},
	"sum": {
		{"Z", func(s *stmt) { s.sumFin.Z = inc(s.sumFin.Z) }},
		{"nil Z", func(s *stmt) { s.sumFin.Z = nil }},
		{"TA", func(s *stmt) { s.sumCom.TA = dbl(s.sumCom.TA) }},
		{"TB", func(s *stmt) { s.sumCom.TB = dbl(s.sumCom.TB) }},
		{"A of one element", func(s *stmt) { dblElem(s, 1, true) }},
		{"B of one element", func(s *stmt) { dblElem(s, 2, false) }},
		{"challenge", func(s *stmt) { s.c = inc(s.c) }},
		{"wrong k", func(s *stmt) { s.k = 2 }},
		{"no ciphertexts", func(s *stmt) { s.cts = nil }},
	},
}

var kinds = []string{"opening", "bit", "sum"}

func batchOf(stmts ...*stmt) *Batch {
	b := NewBatch(key)
	for _, s := range stmts {
		s.add(b)
	}
	return b
}

// TestBatchRelations is the per-kind table: a valid statement verifies
// alone and among others, every single-field mutation is rejected alone
// (where the 1-item batch must agree with the per-element verifier) and
// when hidden among valid statements, and the empty batch accepts.
func TestBatchRelations(t *testing.T) {
	if !NewBatch(key).Verify() {
		t.Fatal("empty batch rejected")
	}
	rnd := group.NewDRBG([]byte("relations"))
	var valid []*stmt
	for i := 0; i < 9; i++ {
		valid = append(valid, newStmt(t, kinds[i%3], i, rnd))
	}
	if !batchOf(valid...).Verify() {
		t.Fatal("batch of valid statements rejected")
	}
	for ki, kind := range kinds {
		good := newStmt(t, kind, 10+ki, rnd)
		if !good.ok() || !batchOf(good).Verify() {
			t.Fatalf("%s: valid statement rejected", kind)
		}
		for _, mu := range mutations[kind] {
			bad := *good
			mu.apply(&bad)
			if bad.ok() {
				t.Fatalf("%s/%s: oracle accepts the mutation", kind, mu.name)
			}
			if batchOf(&bad).Verify() {
				t.Fatalf("%s/%s: 1-item batch accepts what the per-element verifier rejects", kind, mu.name)
			}
			if batchOf(append(append([]*stmt(nil), valid...), &bad)...).Verify() {
				t.Fatalf("%s/%s: mutation accepted among valid statements", kind, mu.name)
			}
		}
	}
}

func verifyEach(stmts []*stmt, limit int) ([]int, int) {
	return VerifyEach(key, 2, len(stmts), limit,
		func(b *Batch, i int) { stmts[i].add(b) },
		func(i int) bool { return stmts[i].ok() })
}

// TestVerifyEachLocatesFailures pins the driver: only failing chunks fall
// back, the bad statements come back by index in order, and limit caps the
// per-element work.
func TestVerifyEachLocatesFailures(t *testing.T) {
	if bad, fb := VerifyEach(key, 0, 0, 0, nil, nil); bad != nil || fb != 0 {
		t.Fatalf("empty range: bad=%v fallbacks=%d", bad, fb)
	}
	rnd := group.NewDRBG([]byte("driver"))
	n := batchChunk + 40 // two chunks
	stmts := make([]*stmt, n)
	for i := range stmts {
		kind := "opening"
		if i%16 == 0 {
			kind = kinds[1+i/16%2]
		}
		stmts[i] = newStmt(t, kind, i, rnd)
	}
	if bad, fb := verifyEach(stmts, 0); len(bad) != 0 || fb != 0 {
		t.Fatalf("valid board: bad=%v fallbacks=%d", bad, fb)
	}
	want := []int{3, 16, 17}
	for _, i := range want {
		mutations[stmts[i].kind][1].apply(stmts[i])
	}
	if bad, fb := verifyEach(stmts, 0); !reflect.DeepEqual(bad, want) || fb != 1 {
		t.Fatalf("one bad chunk: bad=%v fallbacks=%d, want %v and 1", bad, fb, want)
	}
	last := n - 1
	mutations[stmts[last].kind][0].apply(stmts[last])
	want = append(want, last)
	if bad, fb := verifyEach(stmts, 0); !reflect.DeepEqual(bad, want) || fb != 2 {
		t.Fatalf("two bad chunks: bad=%v fallbacks=%d, want %v and 2", bad, fb, want)
	}
	if bad, _ := verifyEach(stmts, 2); len(bad) < 2 || len(bad) > 3 {
		t.Fatalf("limit 2: located %v", bad)
	}
}

// FuzzBatchVerify checks the defining property of the one verification
// path over mixed boards of openings, bit proofs and sum proofs with
// fuzzer-chosen single-field mutations: the batch accepts iff every
// per-element verifier does, and the driver names exactly the mutated
// statements. (The 2⁻¹²⁸ false accept is out of a fuzzer's reach: γ comes
// from crypto/rand after the board is built.)
func FuzzBatchVerify(f *testing.F) {
	f.Add([]byte("seed"), uint8(8), []byte{})
	f.Add([]byte("mixed"), uint8(24), []byte{3, 0, 7, 1, 20, 5})
	f.Add([]byte("x"), uint8(1), []byte{0, 2})
	f.Add([]byte("k"), uint8(9), []byte{2, 7, 2, 8, 5, 11})
	f.Fuzz(func(t *testing.T, seed []byte, n uint8, muts []byte) {
		if n == 0 || n > 24 || len(muts) > 16 {
			t.Skip()
		}
		rnd := group.NewDRBG(seed)
		var pick [1]byte
		stmts := make([]*stmt, n)
		for i := range stmts {
			_, _ = rnd.Read(pick[:])
			stmts[i] = newStmt(t, kinds[int(pick[0])%3], i, rnd)
		}
		mutated := map[int]bool{}
		for j := 0; j+1 < len(muts); j += 2 {
			i := int(muts[j]) % int(n)
			ms := mutations[stmts[i].kind]
			ms[int(muts[j+1])%len(ms)].apply(stmts[i])
			mutated[i] = true
		}
		var want []int
		for i, s := range stmts {
			if !s.ok() {
				want = append(want, i)
			}
			if mutated[i] == s.ok() {
				t.Fatalf("statement %d (%s): mutated=%v but oracle says ok=%v", i, s.kind, mutated[i], s.ok())
			}
		}
		if got := batchOf(stmts...).Verify(); got != (len(want) == 0) {
			t.Fatalf("batch=%v but per-element failures=%v", got, want)
		}
		bad, fb := verifyEach(stmts, 0)
		if !reflect.DeepEqual(bad, want) {
			t.Fatalf("driver named %v, per-element verifiers reject %v", bad, want)
		}
		if wantFB := min(len(want), 1); fb != wantFB {
			t.Fatalf("fallbacks=%d, want %d", fb, wantFB)
		}
	})
}

// BenchmarkVerifyBitBatch is BenchmarkVerifyBit's batched sibling: n bit
// proofs through one Batch, reported per proof.
func BenchmarkVerifyBitBatch(b *testing.B) {
	rnd := group.NewDRBG([]byte("bench"))
	base := make([]*stmt, 64)
	for i := range base {
		base[i] = newStmt(b, "bit", i, rnd)
	}
	for _, n := range []int{64, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bt := NewBatch(key)
				for j := 0; j < n; j++ {
					base[j%len(base)].add(bt)
				}
				if !bt.Verify() {
					b.Fatal("must verify")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*n), "µs/proof")
		})
	}
}

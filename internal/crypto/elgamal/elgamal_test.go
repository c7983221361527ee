package elgamal

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"testing"
	"testing/quick"

	"ddemos/internal/crypto/group"
)

var testKey = DeriveCommitmentKey("test-election")

// Encrypt and EncryptUnitVector are the straightforward affine encryptions
// the tests build fixtures with. The EA commits through zkp.ProveRow, which
// produces the same ciphertexts from the same randomness in constant time.

func (k CommitmentKey) Encrypt(m *big.Int, rnd io.Reader) (Ciphertext, *big.Int, error) {
	r, err := group.RandScalar(rnd)
	if err != nil {
		return Ciphertext{}, nil, err
	}
	return k.EncryptWith(m, r), r, nil
}

func (k CommitmentKey) EncryptUnitVector(m, hot int, rnd io.Reader) (VectorCiphertext, VectorOpening, error) {
	if hot < 0 || hot >= m {
		return nil, VectorOpening{}, fmt.Errorf("elgamal: hot index %d out of range [0,%d)", hot, m)
	}
	cts := make(VectorCiphertext, m)
	op := VectorOpening{Ms: make([]*big.Int, m), Rs: make([]*big.Int, m)}
	for j := 0; j < m; j++ {
		msg := big.NewInt(0)
		if j == hot {
			msg = big.NewInt(1)
		}
		ct, r, err := k.Encrypt(msg, rnd)
		if err != nil {
			return nil, VectorOpening{}, err
		}
		cts[j], op.Ms[j], op.Rs[j] = ct, msg, r
	}
	return cts, op, nil
}

func TestEncryptVerifyOpening(t *testing.T) {
	for _, m := range []int64{0, 1, 2, 1000} {
		ct, r, err := testKey.Encrypt(big.NewInt(m), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if !testKey.VerifyOpening(ct, big.NewInt(m), r) {
			t.Fatalf("valid opening of %d rejected", m)
		}
		if testKey.VerifyOpening(ct, big.NewInt(m+1), r) {
			t.Fatal("wrong message accepted")
		}
		if testKey.VerifyOpening(ct, big.NewInt(m), group.AddScalar(r, big.NewInt(1))) {
			t.Fatal("wrong randomness accepted")
		}
	}
}

func TestKeyDerivationDeterministicAndSeparated(t *testing.T) {
	if !DeriveCommitmentKey("x").P.Equal(DeriveCommitmentKey("x").P) {
		t.Fatal("key derivation must be deterministic")
	}
	if DeriveCommitmentKey("x").P.Equal(DeriveCommitmentKey("y").P) {
		t.Fatal("different elections must have different keys")
	}
}

func TestHomomorphicAddition(t *testing.T) {
	c1, r1, _ := testKey.Encrypt(big.NewInt(3), rand.Reader)
	c2, r2, _ := testKey.Encrypt(big.NewInt(4), rand.Reader)
	sum := c1.Add(c2)
	if !testKey.VerifyOpening(sum, big.NewInt(7), group.AddScalar(r1, r2)) {
		t.Fatal("ciphertext addition is not homomorphic")
	}
}

func TestCiphertextEncodingRoundTrip(t *testing.T) {
	ct, _, _ := testKey.Encrypt(big.NewInt(1), rand.Reader)
	got, err := DecodeCiphertext(ct.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ct) {
		t.Fatal("round trip changed ciphertext")
	}
	if _, err := DecodeCiphertext([]byte{1, 2, 3}); err == nil {
		t.Fatal("short encoding must be rejected")
	}
	bad := ct.Bytes()
	bad[1] ^= 0xff
	if _, err := DecodeCiphertext(bad); err == nil {
		// flipping a byte may still decode to a valid point; only fail if it
		// decodes AND equals the original
		got2, _ := DecodeCiphertext(bad)
		if got2.Equal(ct) {
			t.Fatal("corrupted encoding decoded to original")
		}
	}
}

func TestEncryptUnitVector(t *testing.T) {
	const m = 5
	for hot := 0; hot < m; hot++ {
		v, op, err := testKey.EncryptUnitVector(m, hot, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if len(v) != m {
			t.Fatalf("want %d ciphertexts, got %d", m, len(v))
		}
		if !testKey.VerifyVectorOpening(v, op) {
			t.Fatal("unit vector opening rejected")
		}
		got, err := op.HotIndex()
		if err != nil {
			t.Fatal(err)
		}
		if got != hot {
			t.Fatalf("hot index %d, want %d", got, hot)
		}
	}
	if _, _, err := testKey.EncryptUnitVector(3, 3, rand.Reader); err == nil {
		t.Fatal("out-of-range hot index must fail")
	}
	if _, _, err := testKey.EncryptUnitVector(3, -1, rand.Reader); err == nil {
		t.Fatal("negative hot index must fail")
	}
}

func TestVectorTallying(t *testing.T) {
	// Simulate 6 voters over 3 options: votes 0,1,1,2,1,0 -> tally [2,3,1].
	const m = 3
	votes := []int{0, 1, 1, 2, 1, 0}
	var agg VectorCiphertext
	var ops []VectorOpening
	for _, v := range votes {
		ct, op, err := testKey.EncryptUnitVector(m, v, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
		if agg == nil {
			agg = ct
			continue
		}
		agg, err = agg.Add(ct)
		if err != nil {
			t.Fatal(err)
		}
	}
	total, err := SumOpenings(ops...)
	if err != nil {
		t.Fatal(err)
	}
	if !testKey.VerifyVectorOpening(agg, total) {
		t.Fatal("aggregate opening rejected")
	}
	want := []int64{2, 3, 1}
	for j, w := range want {
		if total.Ms[j].Cmp(big.NewInt(w)) != 0 {
			t.Fatalf("tally[%d] = %v, want %d", j, total.Ms[j], w)
		}
	}
}

func TestVectorAddLengthMismatch(t *testing.T) {
	v1, _, _ := testKey.EncryptUnitVector(2, 0, rand.Reader)
	v2, _, _ := testKey.EncryptUnitVector(3, 0, rand.Reader)
	if _, err := v1.Add(v2); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

func TestHotIndexRejectsNonUnitVectors(t *testing.T) {
	cases := []VectorOpening{
		{Ms: []*big.Int{big.NewInt(0), big.NewInt(0)}, Rs: []*big.Int{big.NewInt(0), big.NewInt(0)}},
		{Ms: []*big.Int{big.NewInt(1), big.NewInt(1)}, Rs: []*big.Int{big.NewInt(0), big.NewInt(0)}},
		{Ms: []*big.Int{big.NewInt(2), big.NewInt(0)}, Rs: []*big.Int{big.NewInt(0), big.NewInt(0)}},
	}
	for i, op := range cases {
		if _, err := op.HotIndex(); err == nil {
			t.Fatalf("case %d: non-unit vector accepted", i)
		}
	}
}

func TestSumOpeningsValidation(t *testing.T) {
	if _, err := SumOpenings(); err == nil {
		t.Fatal("empty sum must fail")
	}
	a := VectorOpening{Ms: []*big.Int{big.NewInt(1)}, Rs: []*big.Int{big.NewInt(1)}}
	b := VectorOpening{Ms: []*big.Int{big.NewInt(1), big.NewInt(0)}, Rs: []*big.Int{big.NewInt(1), big.NewInt(0)}}
	if _, err := SumOpenings(a, b); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

func TestPropertyHomomorphism(t *testing.T) {
	rng := group.NewDRBG([]byte("elgamal-prop"))
	f := func(a, b uint16) bool {
		ca, ra, err := testKey.Encrypt(big.NewInt(int64(a)), rng)
		if err != nil {
			return false
		}
		cb, rb, err := testKey.Encrypt(big.NewInt(int64(b)), rng)
		if err != nil {
			return false
		}
		return testKey.VerifyOpening(ca.Add(cb), big.NewInt(int64(a)+int64(b)), group.AddScalar(ra, rb))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkVerifyOpening(b *testing.B) {
	ct, r, _ := testKey.Encrypt(big.NewInt(1), rand.Reader)
	one := big.NewInt(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !testKey.VerifyOpening(ct, one, r) {
			b.Fatal("must verify")
		}
	}
}

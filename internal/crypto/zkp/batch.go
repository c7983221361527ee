package zkp

import (
	"crypto/rand"
	"math/big"
	"sync/atomic"

	"ddemos/internal/crypto/elgamal"
	"ddemos/internal/crypto/group"
	"ddemos/internal/parallel"
)

// Batch is the one verifier of the publish phase. Every statement checked
// there — a commitment opening, a bit proof, a sum proof — is a handful of
// equations Σ kᵢ·Pᵢ = O over public points. A Batch scales each equation
// by its own fresh 128-bit γ, drawn from crypto/rand when the statement is
// added (so after whoever produced it has committed to it), sums them, and
// checks the sum with a single multi-scalar multiplication. A batch of
// valid statements always verifies; one holding an invalid statement
// verifies with probability at most 2⁻¹²⁸.
//
// Scalars must be non-nil unless noted. A Batch is not safe for concurrent
// use.
type Batch struct {
	key     elgamal.CommitmentKey
	points  []group.Point
	scalars []*big.Int
	bitCts  []int   // per AddBit, the index of its ciphertext's A term (B follows)
	g, p    big.Int // coefficients of G and key.P, folded across equations
	tmp     big.Int
	bad     bool // a scalar-only check failed, or γ could not be sampled
}

// NewBatch returns an empty batch for statements under key.
func NewBatch(key elgamal.CommitmentKey) *Batch { return &Batch{key: key} }

// gammas draws n fresh 128-bit coefficients. A failing entropy source
// fails the batch, which sends its statements to the per-element verifiers.
func (b *Batch) gammas(n int) []*big.Int {
	buf := make([]byte, 16*n)
	if _, err := rand.Read(buf); err != nil {
		b.bad = true
	}
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = new(big.Int).SetBytes(buf[16*i : 16*i+16])
	}
	return out
}

// term adds k·pt to the left-hand side.
func (b *Batch) term(pt group.Point, k *big.Int) {
	b.points = append(b.points, pt)
	b.scalars = append(b.scalars, k)
}

// sub folds −x·y into acc (the coefficient of G or of key.P).
func (b *Batch) sub(acc *big.Int, x, y *big.Int) { acc.Sub(acc, b.tmp.Mul(x, y)) }

// mulAdd returns x₀·y₀ + x₁·y₁ mod q.
func mulAdd(x0, y0, x1, y1 *big.Int) *big.Int {
	return group.AddScalar(new(big.Int).Mul(x0, y0), new(big.Int).Mul(x1, y1))
}

// AddOpening queues elgamal.VerifyOpening(ct, m, r):
//
//	A − r·G = O,  B − m·G − r·P = O.
func (b *Batch) AddOpening(ct elgamal.Ciphertext, m, r *big.Int) {
	y := b.gammas(2)
	b.term(ct.A, y[0])
	b.term(ct.B, y[1])
	b.sub(&b.g, y[0], r)
	b.sub(&b.g, y[1], m)
	b.sub(&b.p, y[1], r)
}

// AddBit queues VerifyBit(key, ct, com, fin, c). C0+C1 ≡ c is a relation
// between scalars and is checked here; the four point equations are
//
//	T0A + c0·A − z0·G = O,  T0B + c0·B − z0·P = O,
//	T1A + c1·A − z1·G = O,  T1B + c1·(B−G) − z1·P = O.
func (b *Batch) AddBit(ct elgamal.Ciphertext, com BitCommit, fin BitFinal, c *big.Int) {
	if fin.C0 == nil || fin.C1 == nil || fin.Z0 == nil || fin.Z1 == nil ||
		group.AddScalar(fin.C0, fin.C1).Cmp(new(big.Int).Mod(c, group.Order())) != 0 {
		b.bad = true
		return
	}
	y := b.gammas(4)
	b.term(com.T0A, y[0])
	b.term(com.T0B, y[1])
	b.term(com.T1A, y[2])
	b.term(com.T1B, y[3])
	b.bitCts = append(b.bitCts, len(b.points))
	b.term(ct.A, mulAdd(y[0], fin.C0, y[2], fin.C1))
	b.term(ct.B, mulAdd(y[1], fin.C0, y[3], fin.C1))
	b.sub(&b.g, y[0], fin.Z0)
	b.sub(&b.g, y[2], fin.Z1)
	b.sub(&b.g, y[3], fin.C1)
	b.sub(&b.p, y[1], fin.Z0)
	b.sub(&b.p, y[3], fin.Z1)
}

// AddSum queues VerifySum(key, cts, k, com, fin, c):
//
//	TA + Σ c·Aᵢ − z·G = O,  TB + Σ c·Bᵢ − c·k·G − z·P = O.
//
// The row is never summed: each Aᵢ and Bᵢ gets its γc directly. A voted
// row's m bit proofs come just before its sum proof and range over the same
// ciphertexts, so when one of the last len(cts) AddBit calls of this batch
// queued a ciphertext equal to cts[i], γc is added to that call's A and B
// scalars and the row costs 6m + 2 points; otherwise (a chunk boundary
// split the row) Aᵢ and Bᵢ are queued as terms of their own.
func (b *Batch) AddSum(cts elgamal.VectorCiphertext, k int, com SumCommit, fin SumFinal, c *big.Int) {
	if fin.Z == nil || len(cts) == 0 {
		b.bad = true
		return
	}
	y := b.gammas(2)
	ya, yb := group.MulScalar(y[0], c), group.MulScalar(y[1], c)
	b.term(com.TA, y[0])
	b.term(com.TB, y[1])
	row := b.bitCts[max(0, len(b.bitCts)-len(cts)):]
	for _, ct := range cts {
		if j := b.queued(row, ct); j >= 0 {
			b.scalars[j] = group.AddScalar(b.scalars[j], ya)
			b.scalars[j+1] = group.AddScalar(b.scalars[j+1], yb)
			continue
		}
		b.term(ct.A, ya)
		b.term(ct.B, yb)
	}
	b.sub(&b.g, y[0], fin.Z)
	b.sub(&b.g, yb, big.NewInt(int64(k)))
	b.sub(&b.p, y[1], fin.Z)
}

// queued returns the index of the A term of the first ciphertext at idx
// (a subset of bitCts) equal to ct, or −1.
func (b *Batch) queued(idx []int, ct elgamal.Ciphertext) int {
	for _, j := range idx {
		if b.points[j].Equal(ct.A) && b.points[j+1].Equal(ct.B) {
			return j
		}
	}
	return -1
}

// Verify reports whether every queued statement holds (up to the 2⁻¹²⁸
// false accept). An empty batch verifies.
func (b *Batch) Verify() bool {
	if b.bad {
		return false
	}
	q := group.Order()
	points := append(b.points, group.Base(), b.key.P)
	scalars := append(b.scalars, new(big.Int).Mod(&b.g, q), new(big.Int).Mod(&b.p, q))
	return group.MultiScalarMulVartime(points, scalars).IsIdentity()
}

// batchChunk is the number of statements verified per batch: enough points
// (2 per opening, 6 per bit proof, 2 per folded sum proof) that a statement
// costs within about a tenth of what it does at twice the size, few enough
// that a board has chunks for every core and a located failure re-checks
// only part of it. docs/board-verify.md has the measurement.
const batchChunk = 4096

// VerifyEach checks n statements and returns the indices, ascending, of
// those that do not hold, with the number of chunks that had to be
// located. add(b, i) queues statement i on a batch; check(i) is the
// per-element verifier of the same statement. Chunks of the index range
// are verified in parallel on up to workers goroutines (0 = GOMAXPROCS),
// one batch each; only a chunk whose batch fails is re-run through check
// to name its bad statements. With limit > 0 locating stops once limit bad
// statements are known — a caller that only needs "too many to succeed"
// bounds the per-element work a hostile input can cause; len(bad) >= limit
// then means other statements may be bad too.
func VerifyEach(key elgamal.CommitmentKey, workers, n, limit int, add func(b *Batch, i int), check func(i int) bool) (bad []int, fallbacks int) {
	if n == 0 {
		return nil, 0
	}
	chunks := (n + batchChunk - 1) / batchChunk
	size := (n + chunks - 1) / chunks
	var found, located atomic.Int64
	perChunk := make([][]int, chunks)
	parallel.Run(workers, chunks, func(ci int) {
		lo, hi := ci*size, ci*size+size
		if hi > n {
			hi = n
		}
		b := NewBatch(key)
		for i := lo; i < hi; i++ {
			add(b, i)
		}
		capped := func() bool { return limit > 0 && found.Load() >= int64(limit) }
		if b.Verify() || capped() {
			return
		}
		located.Add(1)
		for i := lo; i < hi && !capped(); i++ {
			if !check(i) {
				perChunk[ci] = append(perChunk[ci], i)
				found.Add(1)
			}
		}
	})
	for _, c := range perChunk {
		bad = append(bad, c...)
	}
	return bad, int(located.Load())
}

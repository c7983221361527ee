package bb

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"time"

	"ddemos/internal/crypto/elgamal"
	"ddemos/internal/crypto/group"
	"ddemos/internal/crypto/votecode"
	"ddemos/internal/crypto/zkp"
	"ddemos/internal/ea"
	"ddemos/internal/journal"
	"ddemos/internal/vc"
)

// This file is the board's byte format: the one encoding of everything a
// replica serves or accepts, which the journal appends, HTTP serves, HashPost
// signs and the Reader compares by digest. DESIGN.md, "Board encoding", has
// the layout table and the rules: counts bounded by the bytes left, scalars
// 32 bytes and below q, points compressed and on the curve, every byte
// consumed, encode(decode(b)) == b. Each layout is written once, as a walk
// that either appends the fields or reads them back. Encoding is total: a nil
// scalar, which no decoder yields, encodes as 32 0xff bytes, so a value
// holding one never decodes and is refused wherever it is submitted.

// Kind names a board artefact: the five a replica serves, then the three it
// accepts.
type Kind uint8

// Board artefacts.
const (
	KindManifest Kind = iota + 1
	KindInit
	KindVoteSet
	KindCast
	KindResult
	KindSetSubmission
	KindMskShare
	KindTrusteePost
)

var kindPaths = [256]string{
	KindManifest: "manifest", KindInit: "init", KindVoteSet: "voteset", KindCast: "cast", KindResult: "result",
	KindSetSubmission: "submit/voteset", KindMskShare: "submit/mskshare", KindTrusteePost: "submit/trusteepost",
}

// String is the artefact's route under /v1/ (empty for no artefact).
func (k Kind) String() string { return kindPaths[k] }

// ErrMalformed is returned for bytes that are not the encoding of the
// artefact they were read or submitted as.
var ErrMalformed = errors.New("bb: malformed board encoding")

const (
	scalarLen = 32
	pointLen  = 33
	sigLen    = 4 + ed25519.SignatureSize // an honest signature field
)

var (
	badScalar = bytes.Repeat([]byte{0xff}, scalarLen)
	identity  [pointLen]byte
)

// VoteSetSubmission is one VC node's signed final vote set: the body of
// POST /v1/submit/voteset.
type VoteSetSubmission struct {
	VCIndex int
	Set     []vc.VotedBallot
	Sig     []byte
}

// EncodeManifest encodes the election manifest.
func EncodeManifest(m *ea.Manifest) []byte { return encode(nil, m, (*coder).manifest) }

// EncodeInit encodes the BB initialization data.
func EncodeInit(init *ea.BBInit) []byte { return encode(nil, init, (*coder).init) }

// EncodeVoteSet encodes a vote set.
func EncodeVoteSet(set []vc.VotedBallot) []byte { return encode(nil, &set, (*coder).voteSet) }

// EncodeCast encodes the published cast data.
func EncodeCast(c *CastData) []byte { return encode(nil, c, (*coder).cast) }

// EncodeResult encodes a published result.
func EncodeResult(r *Result) []byte { return encode(nil, r, (*coder).result) }

// EncodeSetSubmission encodes a VC node's vote-set submission.
func EncodeSetSubmission(s *VoteSetSubmission) []byte { return encode(nil, s, (*coder).setSubmission) }

// EncodeMskShare encodes a master-key share submission.
func EncodeMskShare(s ea.MskShare) []byte { return encode(nil, &s, (*coder).mskShare) }

// EncodeTrusteePost encodes a trustee post: its body, then its signature.
func EncodeTrusteePost(p *TrusteePost) []byte { return encode(nil, p, (*coder).post) }

// HashPost is the digest a trustee signs: SHA-256 over the election ID and
// the post's encoding without its signature.
func HashPost(electionID string, p *TrusteePost) [32]byte {
	return hashPostBody(electionID, encode(nil, p, (*coder).postBody))
}

func hashPostBody(electionID string, body []byte) [32]byte {
	h := sha256.New()
	h.Write(journal.AppendBytes(nil, []byte(electionID)))
	h.Write(body)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// SubmitLimit is the largest body an honest submitter of kind sends in man's
// election — what the HTTP layer caps a request at — and 0 for the kinds a
// replica does not accept.
func SubmitLimit(man *ea.Manifest, kind Kind) int64 {
	m, n := int64(len(man.Options)), int64(man.NumBallots)
	scalars := 4 + m*scalarLen
	switch kind {
	case KindSetSubmission:
		return 4 + 4 + n*(8+4+votecode.CodeSize) + sigLen
	case KindMskShare:
		return 4 + scalarLen + sigLen
	case KindTrusteePost:
		// Every row of every ballot, as the wider of an opening and a proof
		// row, m scalars wide, plus the two tally share vectors.
		opening := 13 + 2*scalars
		proof := 13 + 4 + m*4*scalarLen + scalarLen
		return 4*4 + 2*n*m*max(opening, proof) + 2*scalars + sigLen
	}
	return 0
}

// encode appends v's encoding to dst; a nil v encodes as nothing.
func encode[T any](dst []byte, v *T, walk func(*coder, *T)) []byte {
	if v == nil {
		return nil
	}
	c := &coder{out: dst}
	walk(c, v)
	return c.out
}

// decode reads a T from b: it fails unless every field was valid and the
// walk consumed every byte.
func decode[T any](kind Kind, b []byte, walk func(*coder, *T)) (T, error) {
	var v T
	c := &coder{in: &journal.Dec{Buf: b}}
	walk(c, &v)
	if c.in.Bad || len(c.in.Buf) != 0 {
		var zero T
		return zero, fmt.Errorf("%w: %v", ErrMalformed, kind)
	}
	return v, nil
}

// decodeSetSubmission also returns the vote set's own encoding inside b.
func decodeSetSubmission(b []byte) (VoteSetSubmission, []byte, error) {
	s, err := decode(KindSetSubmission, b, (*coder).setSubmission)
	if err != nil {
		return s, nil, err
	}
	return s, b[4 : len(b)-4-len(s.Sig)], nil
}

// decodeTrusteePost also returns the post's body: b without the signature.
func decodeTrusteePost(b []byte) (*TrusteePost, []byte, error) {
	p, err := decode(KindTrusteePost, b, (*coder).post)
	if err != nil {
		return nil, nil, err
	}
	return &p, b[:len(b)-4-len(p.Sig)], nil
}

// --- layouts ---------------------------------------------------------------

func (c *coder) manifest(m *ea.Manifest) {
	c.string(&m.ElectionID)
	list(c, &m.Options, 4, c.string)
	for _, v := range []*int{&m.NumBallots, &m.NumVC, &m.NumBB, &m.NumTrustees, &m.TrusteeThreshold, &m.MaxSelections} {
		c.int(v)
	}
	c.time(&m.VotingStart)
	c.time(&m.VotingEnd)
	c.key(&m.EAPublic)
	list(c, &m.VCPublics, 4, c.key)
	list(c, &m.TrusteePublics, 4, c.key)
}

func (c *coder) init(in *ea.BBInit) {
	c.manifest(&in.Manifest)
	c.fixed(in.HMsk[:])
	c.fixed(in.SaltMsk[:])
	list(c, &in.Ballots, 8+4+4, func(b *ea.BBBallot) {
		c.u64(&b.Serial)
		for part := range b.Parts {
			list(c, &b.Parts[part], 4+4+4+2*pointLen, c.row)
		}
	})
}

func (c *coder) row(r *ea.BBRow) {
	c.bytes(&r.EncCode)
	list(c, &r.Commitment, 2*pointLen, func(ct *elgamal.Ciphertext) { c.points(&ct.A, &ct.B) })
	list(c, &r.BitCommits, 4*pointLen, func(b *zkp.BitCommit) { c.points(&b.T0A, &b.T0B, &b.T1A, &b.T1B) })
	c.points(&r.SumCommit.TA, &r.SumCommit.TB)
}

func (c *coder) voteSet(set *[]vc.VotedBallot) {
	list(c, set, 8+4, func(vb *vc.VotedBallot) {
		c.u64(&vb.Serial)
		c.bytes(&vb.Code)
	})
}

func (c *coder) cast(x *CastData) {
	c.voteSet(&x.VoteSet)
	list(c, &x.Codes, 4+4, func(parts *[2][][]byte) {
		for i := range parts {
			list(c, &parts[i], 4, c.bytes)
		}
	})
	list(c, &x.Marks, 8+1+4, func(mk *CastMark) { c.rowKey(&mk.Serial, &mk.Part, &mk.Row) })
	c.bytes(&x.Coins)
}

func (c *coder) result(r *Result) {
	list(c, &r.Counts, 8, func(v *int64) {
		u := uint64(*v) //nolint:gosec // two's complement round-trips
		if c.u64(&u); c.in != nil {
			*v = int64(u) //nolint:gosec // two's complement round-trips
		}
	})
	c.scalars(&r.TallyMs)
	c.scalars(&r.TallyRs)
	list(c, &r.Openings, 13+4+4+4, func(o *OpenedRow) {
		c.opening(&o.Serial, &o.Part, &o.Row, &o.Ms, &o.Rs)
		c.int(&o.HotIndex)
	})
	list(c, &r.Proofs, 13+4+scalarLen, c.proof)
}

func (c *coder) setSubmission(s *VoteSetSubmission) {
	c.int(&s.VCIndex)
	c.voteSet(&s.Set)
	c.bytes(&s.Sig)
}

func (c *coder) mskShare(s *ea.MskShare) {
	c.u32(&s.Index)
	c.scalar(&s.Value)
	c.bytes(&s.Sig)
}

func (c *coder) post(p *TrusteePost) {
	c.postBody(p)
	c.bytes(&p.Sig)
}

func (c *coder) postBody(p *TrusteePost) {
	c.int(&p.Trustee)
	c.u32(&p.ShareIndex)
	list(c, &p.Openings, 13+4+4, func(o *OpeningShare) { c.opening(&o.Serial, &o.Part, &o.Row, &o.Ms, &o.Rs) })
	list(c, &p.Proofs, 13+4+scalarLen, c.proof)
	c.scalars(&p.TallyMs)
	c.scalars(&p.TallyRs)
}

// Opening and proof rows: one layout each for trustee shares and results.

func (c *coder) rowKey(serial *uint64, part *uint8, row *int) {
	c.u64(serial)
	c.u8(part)
	c.int(row)
}

func (c *coder) opening(serial *uint64, part *uint8, row *int, ms, rs *[]*big.Int) {
	c.rowKey(serial, part, row)
	c.scalars(ms)
	c.scalars(rs)
}

func (c *coder) proof(pf *ProvenRow) {
	c.rowKey(&pf.Serial, &pf.Part, &pf.Row)
	list(c, &pf.Bits, 4*scalarLen, func(b *zkp.BitFinal) {
		for _, s := range []**big.Int{&b.C0, &b.C1, &b.Z0, &b.Z1} {
			c.scalar(s)
		}
	})
	c.scalar(&pf.Sum.Z)
}

// --- fields ----------------------------------------------------------------

// coder walks a layout in one direction: appending the fields to out, or,
// when in is set, reading them from in through the pointers. An encoding
// walk never writes through its pointers.
type coder struct {
	out []byte
	in  *journal.Dec
}

// list codes a collection: its count, then each element. A decoded count is
// bounded by the bytes left, minSize per element.
func list[S ~[]T, T any](c *coder, s *S, minSize int, elem func(*T)) {
	if c.in != nil {
		*s = make(S, c.in.Count(minSize))
	} else {
		c.out = binary.BigEndian.AppendUint32(c.out, uint32(len(*s))) //nolint:gosec // protocol-bounded
	}
	for i := range *s {
		elem(&(*s)[i])
	}
}

func (c *coder) u8(v *uint8)   { num(c, v, 1) }
func (c *coder) u32(v *uint32) { num(c, v, 4) }
func (c *coder) u64(v *uint64) { num(c, v, 8) }

// num codes an unsigned integer as size big-endian bytes.
func num[T uint8 | uint32 | uint64](c *coder, v *T, size int) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(*v))
	if c.fixed(b[8-size:]); c.in != nil {
		*v = T(binary.BigEndian.Uint64(b[:]))
	}
}

// int codes an index or a count as a u32.
func (c *coder) int(v *int) {
	u := uint32(*v) //nolint:gosec // indices and counts fit
	if c.u32(&u); c.in != nil {
		*v = int(u)
	}
}

// fixed codes a fixed-size field in place.
func (c *coder) fixed(v []byte) {
	if c.in != nil {
		copy(v, c.in.Fixed(len(v)))
	} else {
		c.out = append(c.out, v...)
	}
}

func (c *coder) bytes(v *[]byte) {
	if c.in != nil {
		*v = c.in.Bytes()
	} else {
		c.out = journal.AppendBytes(c.out, *v)
	}
}

func (c *coder) string(v *string) {
	b := []byte(*v)
	if c.bytes(&b); c.in != nil {
		*v = string(b)
	}
}

func (c *coder) key(k *ed25519.PublicKey) { c.bytes((*[]byte)(k)) }

// scalar never decodes to nil; a field that is not a scalar below q marks
// the decode bad.
func (c *coder) scalar(k **big.Int) {
	if c.in == nil {
		b := badScalar
		if *k != nil {
			b = group.ScalarBytes(*k)
		}
		c.out = append(c.out, b...)
		return
	}
	var err error
	if *k, err = group.DecodeScalar(c.in.Fixed(scalarLen)); err != nil {
		*k, c.in.Bad = new(big.Int), true
	}
}

func (c *coder) scalars(ks *[]*big.Int) { list(c, ks, scalarLen, c.scalar) }

func (c *coder) points(ps ...*group.Point) {
	for _, p := range ps {
		if c.in == nil {
			b := identity[:]
			if !p.IsIdentity() {
				b = p.Bytes()
			}
			c.out = append(c.out, b...)
			continue
		}
		b := c.in.Fixed(pointLen)
		*p = group.Point{}
		if !bytes.Equal(b, identity[:]) {
			var err error
			if *p, err = group.DecodePoint(b); err != nil {
				c.in.Bad = true
			}
		}
	}
}

// time codes an instant as unix seconds and nanoseconds; it decodes in UTC,
// since an instant has one encoding and its zone none.
func (c *coder) time(t *time.Time) {
	sec, nsec := uint64(t.Unix()), uint32(t.Nanosecond()) //nolint:gosec // two's complement round-trips
	c.u64(&sec)
	if c.u32(&nsec); c.in != nil {
		c.in.Bad = c.in.Bad || nsec >= 1e9
		*t = time.Unix(int64(sec), int64(nsec)).UTC() //nolint:gosec // two's complement round-trips
	}
}

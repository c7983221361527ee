package bb

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"time"

	"ddemos/internal/codec"
	"ddemos/internal/crypto/elgamal"
	"ddemos/internal/crypto/group"
	"ddemos/internal/crypto/votecode"
	"ddemos/internal/crypto/zkp"
	"ddemos/internal/ea"
	"ddemos/internal/vc"
	"ddemos/internal/wire"
)

// This file is the board's byte format: the one encoding of everything a
// replica serves or accepts, which the journal appends, HTTP serves, HashPost
// signs and the Reader compares by digest. DESIGN.md, "Byte encoding", has
// the layout table and the rules, which internal/codec keeps for frames,
// journal records and board artefacts alike; the board adds its own fields:
// scalars 32 bytes and below q, points compressed and on the curve, times
// with nanoseconds below a second. Each layout is written once, as a walk
// over a codec.Coder. Encoding is total: a nil scalar, which no decoder
// yields, encodes as 32 0xff bytes, so a value holding one never decodes and
// is refused wherever it is submitted.

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
func EncodeManifest(m *ea.Manifest) []byte { return encode(nil, m, walkManifest) }

// EncodeInit encodes the BB initialization data.
func EncodeInit(init *ea.BBInit) []byte { return encode(nil, init, InitFile.body) }

// EncodeVoteSet encodes a vote set.
func EncodeVoteSet(set []vc.VotedBallot) []byte { return encode(nil, &set, wire.WalkVoteSet) }

// EncodeCast encodes the published cast data.
func EncodeCast(c *CastData) []byte { return encode(nil, c, walkCast) }

// EncodeResult encodes a published result.
func EncodeResult(r *Result) []byte { return encode(nil, r, walkResult) }

// EncodeSetSubmission encodes a VC node's vote-set submission.
func EncodeSetSubmission(s *VoteSetSubmission) []byte { return encode(nil, s, walkSetSubmission) }

// EncodeMskShare encodes a master-key share submission.
func EncodeMskShare(s ea.MskShare) []byte { return encode(nil, &s, walkMskShare) }

// EncodeTrusteePost encodes a trustee post: its body, then its signature.
func EncodeTrusteePost(p *TrusteePost) []byte { return encode(nil, p, walkPost) }

// HashPost is the digest a trustee signs: SHA-256 over the election ID and
// the post's encoding without its signature.
func HashPost(electionID string, p *TrusteePost) [32]byte {
	return hashPostBody(electionID, encode(nil, p, walkPostBody))
}

func hashPostBody(electionID string, body []byte) [32]byte {
	h := sha256.New()
	h.Write(encode(nil, &electionID, str))
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
func encode[T any](dst []byte, v *T, walk func(*codec.Coder, *T)) []byte {
	if v == nil {
		return nil
	}
	c := codec.Encoder(dst)
	walk(c, v)
	return c.Out()
}

// decode reads a T from b: it fails unless every field was valid and the
// walk consumed every byte.
func decode[T any](kind Kind, b []byte, walk func(*codec.Coder, *T)) (T, error) {
	var v T
	c := codec.Decoder(b)
	if walk(c, &v); !c.Done() {
		var zero T
		return zero, fmt.Errorf("%w: %v", ErrMalformed, kind)
	}
	return v, nil
}

// decodeSetSubmission also returns the vote set's own encoding inside b.
func decodeSetSubmission(b []byte) (VoteSetSubmission, []byte, error) {
	s, err := decode(KindSetSubmission, b, walkSetSubmission)
	if err != nil {
		return s, nil, err
	}
	return s, b[4 : len(b)-4-len(s.Sig)], nil
}

// decodeTrusteePost also returns the post's body: b without the signature.
func decodeTrusteePost(b []byte) (*TrusteePost, []byte, error) {
	p, err := decode(KindTrusteePost, b, walkPost)
	if err != nil {
		return nil, nil, err
	}
	return &p, b[:len(b)-4-len(p.Sig)], nil
}

// --- layouts ---------------------------------------------------------------

func walkManifest(c *codec.Coder, m *ea.Manifest) {
	str(c, &m.ElectionID)
	codec.List(c, &m.Options, 4, str)
	for _, v := range []*int{&m.NumBallots, &m.NumVC, &m.NumBB, &m.NumTrustees, &m.TrusteeThreshold, &m.MaxSelections} {
		c.Int(v)
	}
	instant(c, &m.VotingStart)
	instant(c, &m.VotingEnd)
	pubKey(c, &m.EAPublic)
	codec.List(c, &m.VCPublics, 4, pubKey)
	codec.List(c, &m.TrusteePublics, 4, pubKey)
}

func initHead(c *codec.Coder, in *ea.BBInit) {
	walkManifest(c, &in.Manifest)
	c.Fixed(in.HMsk[:])
	c.Fixed(in.SaltMsk[:])
}

func walkBBBallot(c *codec.Coder, b *ea.BBBallot) {
	c.U64(&b.Serial)
	for part := range b.Parts {
		codec.List(c, &b.Parts[part], 4+4+4+2*pointLen, walkRow)
	}
}

func walkRow(c *codec.Coder, r *ea.BBRow) {
	anyBytes(c, &r.EncCode)
	codec.List(c, &r.Commitment, 2*pointLen, func(c *codec.Coder, ct *elgamal.Ciphertext) { points(c, &ct.A, &ct.B) })
	codec.List(c, &r.BitCommits, 4*pointLen, func(c *codec.Coder, b *zkp.BitCommit) { points(c, &b.T0A, &b.T0B, &b.T1A, &b.T1B) })
	points(c, &r.SumCommit.TA, &r.SumCommit.TB)
}

func walkCast(c *codec.Coder, x *CastData) {
	wire.WalkVoteSet(c, &x.VoteSet)
	codec.List(c, &x.Codes, 4+4, func(c *codec.Coder, parts *[2][][]byte) {
		for i := range parts {
			codec.List(c, &parts[i], 4, anyBytes)
		}
	})
	codec.List(c, &x.Marks, 8+1+4, func(c *codec.Coder, mk *CastMark) { rowKey(c, &mk.Serial, &mk.Part, &mk.Row) })
	anyBytes(c, &x.Coins)
}

func walkResult(c *codec.Coder, r *Result) {
	codec.List(c, &r.Counts, 8, func(c *codec.Coder, v *int64) {
		u := uint64(*v) //nolint:gosec // two's complement round-trips
		if c.U64(&u); c.Decoding() {
			*v = int64(u) //nolint:gosec // two's complement round-trips
		}
	})
	scalars(c, &r.TallyMs)
	scalars(c, &r.TallyRs)
	codec.List(c, &r.Openings, 13+4+4+4, func(c *codec.Coder, o *OpenedRow) {
		opening(c, &o.Serial, &o.Part, &o.Row, &o.Ms, &o.Rs)
		c.Int(&o.HotIndex)
	})
	codec.List(c, &r.Proofs, 13+4+scalarLen, proof)
}

func walkSetSubmission(c *codec.Coder, s *VoteSetSubmission) {
	c.Int(&s.VCIndex)
	wire.WalkVoteSet(c, &s.Set)
	anyBytes(c, &s.Sig)
}

func walkMskShare(c *codec.Coder, s *ea.MskShare) {
	c.U32(&s.Index)
	scalar(c, &s.Value)
	anyBytes(c, &s.Sig)
}

func walkPost(c *codec.Coder, p *TrusteePost) {
	walkPostBody(c, p)
	anyBytes(c, &p.Sig)
}

func walkPostBody(c *codec.Coder, p *TrusteePost) {
	c.Int(&p.Trustee)
	c.U32(&p.ShareIndex)
	codec.List(c, &p.Openings, 13+4+4, func(c *codec.Coder, o *OpeningShare) { opening(c, &o.Serial, &o.Part, &o.Row, &o.Ms, &o.Rs) })
	codec.List(c, &p.Proofs, 13+4+scalarLen, proof)
	scalars(c, &p.TallyMs)
	scalars(c, &p.TallyRs)
}

// Opening and proof rows: one layout each for trustee shares and results.

func rowKey(c *codec.Coder, serial *uint64, part *uint8, row *int) {
	c.U64(serial)
	c.U8(part)
	c.Int(row)
}

func opening(c *codec.Coder, serial *uint64, part *uint8, row *int, ms, rs *[]*big.Int) {
	rowKey(c, serial, part, row)
	scalars(c, ms)
	scalars(c, rs)
}

func proof(c *codec.Coder, pf *ProvenRow) {
	rowKey(c, &pf.Serial, &pf.Part, &pf.Row)
	codec.List(c, &pf.Bits, 4*scalarLen, func(c *codec.Coder, b *zkp.BitFinal) {
		for _, s := range []**big.Int{&b.C0, &b.C1, &b.Z0, &b.Z1} {
			scalar(c, s)
		}
	})
	scalar(c, &pf.Sum.Z)
}

// --- the board's own fields --------------------------------------------------

// Byte strings on the board are bounded by the bytes left alone.

func anyBytes(c *codec.Coder, v *[]byte) { c.Bytes(v, codec.AnyLen) }

func str(c *codec.Coder, v *string) { c.String(v, codec.AnyLen) }

func pubKey(c *codec.Coder, k *ed25519.PublicKey) { anyBytes(c, (*[]byte)(k)) }

// scalar never decodes to nil; a field that is not a scalar below q marks
// the decode bad.
func scalar(c *codec.Coder, k **big.Int) {
	if !c.Decoding() {
		b := badScalar
		if *k != nil {
			b = group.ScalarBytes(*k)
		}
		c.Fixed(b)
		return
	}
	var err error
	if *k, err = group.DecodeScalar(c.Next(scalarLen)); err != nil {
		*k = new(big.Int)
		c.Fail()
	}
}

func scalars(c *codec.Coder, ks *[]*big.Int) { codec.List(c, ks, scalarLen, scalar) }

func points(c *codec.Coder, ps ...*group.Point) {
	for _, p := range ps {
		if !c.Decoding() {
			b := identity[:]
			if !p.IsIdentity() {
				b = p.Bytes()
			}
			c.Fixed(b)
			continue
		}
		b := c.Next(pointLen)
		*p = group.Point{}
		if !bytes.Equal(b, identity[:]) {
			var err error
			if *p, err = group.DecodePoint(b); err != nil {
				c.Fail()
			}
		}
	}
}

// instant codes a time as unix seconds and nanoseconds; it decodes in UTC,
// since an instant has one encoding and its zone none.
func instant(c *codec.Coder, t *time.Time) {
	sec, nsec := uint64(t.Unix()), uint32(t.Nanosecond()) //nolint:gosec // two's complement round-trips
	c.U64(&sec)
	if c.U32(&nsec); c.Decoding() {
		if nsec >= 1e9 {
			c.Fail()
		}
		*t = time.Unix(int64(sec), int64(nsec)).UTC() //nolint:gosec // two's complement round-trips
	}
}

package bb

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"testing"
	"time"

	"ddemos/internal/codec"
	"ddemos/internal/codec/codectest"
	"ddemos/internal/crypto/group"
	"ddemos/internal/crypto/zkp"
	"ddemos/internal/ea"
	"ddemos/internal/vc"
	"ddemos/internal/wire"
)

// boardDecoders runs every codec decoder; an accepted input comes back with
// a function that re-encodes what was decoded.
var boardDecoders = []struct {
	kind   Kind
	decode func(b []byte) (func() []byte, error)
}{
	{KindManifest, func(b []byte) (func() []byte, error) {
		m, err := decode(KindManifest, b, walkManifest)
		return func() []byte { return EncodeManifest(&m) }, err
	}},
	{KindInit, func(b []byte) (func() []byte, error) {
		in, err := decode(KindInit, b, InitFile.body)
		return func() []byte { return EncodeInit(&in) }, err
	}},
	{KindVoteSet, func(b []byte) (func() []byte, error) {
		set, err := decode(KindVoteSet, b, wire.WalkVoteSet)
		return func() []byte { return EncodeVoteSet(set) }, err
	}},
	{KindCast, func(b []byte) (func() []byte, error) {
		c, err := decode(KindCast, b, walkCast)
		return func() []byte { return EncodeCast(&c) }, err
	}},
	{KindResult, func(b []byte) (func() []byte, error) {
		r, err := decode(KindResult, b, walkResult)
		return func() []byte { return EncodeResult(&r) }, err
	}},
	{KindSetSubmission, func(b []byte) (func() []byte, error) {
		s, _, err := decodeSetSubmission(b)
		return func() []byte { return EncodeSetSubmission(&s) }, err
	}},
	{KindMskShare, func(b []byte) (func() []byte, error) {
		s, err := decode(KindMskShare, b, walkMskShare)
		return func() []byte { return EncodeMskShare(s) }, err
	}},
	{KindTrusteePost, func(b []byte) (func() []byte, error) {
		p, _, err := decodeTrusteePost(b)
		return func() []byte { return EncodeTrusteePost(p) }, err
	}},
}

// sampleArtefacts encodes one small value of every kind, built in process
// (the checked-in corpus under testdata/fuzz holds a real election's).
func sampleArtefacts(tb testing.TB) map[Kind][]byte {
	init := fuzzBBInit(tb)
	s := func(v int64) *big.Int { return big.NewInt(v) }
	set := []vc.VotedBallot{{Serial: 1, Code: []byte("code")}}
	ms := []*big.Int{s(1), s(0)}
	return map[Kind][]byte{
		KindManifest: EncodeManifest(&init.Manifest),
		KindInit:     EncodeInit(init),
		KindVoteSet:  EncodeVoteSet(set),
		KindCast: EncodeCast(&CastData{VoteSet: set, Codes: [][2][][]byte{{{[]byte("a"), nil}, {[]byte("b"), []byte("c")}}},
			Marks: []CastMark{{Serial: 1, Part: 1, Row: 1}}, Coins: []byte{1}}),
		KindResult: EncodeResult(&Result{Counts: []int64{1, 0}, TallyMs: ms, TallyRs: ms,
			Openings: []OpenedRow{{Serial: 1, Ms: ms, Rs: ms, HotIndex: 0}},
			Proofs:   []ProvenRow{{Serial: 1, Part: 1, Bits: []zkp.BitFinal{{C0: s(1), C1: s(2), Z0: s(3), Z1: s(4)}}, Sum: zkp.SumFinal{Z: s(5)}}}}),
		KindSetSubmission: EncodeSetSubmission(&VoteSetSubmission{VCIndex: 2, Set: set, Sig: []byte("sig")}),
		KindMskShare:      EncodeMskShare(ea.MskShare{Index: 1, Value: s(42), Sig: []byte("sig")}),
		KindTrusteePost: EncodeTrusteePost(&TrusteePost{Trustee: 0, ShareIndex: 1,
			Openings: []OpeningShare{{Serial: 1, Ms: ms, Rs: ms}}, TallyMs: ms, TallyRs: ms, Sig: []byte("sig")}),
	}
}

// TestBoardEncodingRoundTrips: every kind decodes its own encoding and
// re-encodes it byte for byte, and refuses it with a byte missing or a byte
// to spare.
func TestBoardEncodingRoundTrips(t *testing.T) {
	samples := sampleArtefacts(t)
	for _, c := range boardDecoders {
		b := samples[c.kind]
		reencode, err := c.decode(b)
		if err != nil {
			t.Fatalf("%v: own encoding refused: %v", c.kind, err)
		}
		if !bytes.Equal(reencode(), b) {
			t.Fatalf("%v: encode(decode(b)) != b", c.kind)
		}
		if _, err := c.decode(b[:len(b)-1]); err == nil {
			t.Fatalf("%v: truncated encoding accepted", c.kind)
		}
		if _, err := c.decode(append(append([]byte(nil), b...), 0)); err == nil {
			t.Fatalf("%v: trailing byte accepted", c.kind)
		}
	}
}

// TestBoardFieldsAreStrict pins the per-field rules: a scalar is below q, a
// point is on the curve (or the all-zero identity), a time's nanoseconds
// are below a second, and a count fits the bytes left.
func TestBoardFieldsAreStrict(t *testing.T) {
	q := group.Order().FillBytes(make([]byte, scalarLen))
	qMinus1 := group.ScalarBytes(new(big.Int).Sub(group.Order(), big.NewInt(1)))
	gen := group.Base().Bytes()
	offCurve := append([]byte{4}, gen[1:]...)
	zeroPrefixed := append([]byte{0}, gen[1:]...)
	nanos := func(n uint32) []byte { return binary.BigEndian.AppendUint32(make([]byte, 8), n) }
	var nilScalar *big.Int
	oneScalar := func(c *codec.Coder) { var k *big.Int; scalar(c, &k) }
	point := func(c *codec.Coder) { points(c, new(group.Point)) }
	when := func(c *codec.Coder) { instant(c, new(time.Time)) }
	set := func(c *codec.Coder) { wire.WalkVoteSet(c, new([]vc.VotedBallot)) }
	cases := []struct {
		name string
		in   []byte
		walk func(*codec.Coder)
		ok   bool
	}{
		{"scalar q-1", qMinus1, oneScalar, true},
		{"scalar q", q, oneScalar, false},
		{"nil scalar's encoding", encode(nil, &nilScalar, scalar), oneScalar, false},
		{"generator", gen, point, true},
		{"identity", make([]byte, pointLen), point, true},
		{"uncompressed prefix", offCurve, point, false},
		{"identity prefix, nonzero x", zeroPrefixed, point, false},
		{"nanoseconds 999999999", nanos(999999999), when, true},
		{"nanoseconds 1e9", nanos(1e9), when, false},
		{"count the bytes hold", []byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, set, true},
		{"count past the bytes", []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}, set, false},
	}
	for _, c := range cases {
		d := codec.Decoder(c.in)
		if c.walk(d); d.Done() != c.ok {
			t.Errorf("%s: accepted = %v, want %v", c.name, d.Done(), c.ok)
		}
	}
	identity := group.Base()
	points(codec.Decoder(make([]byte, pointLen)), &identity)
	if !identity.IsIdentity() {
		t.Fatal("33 zero bytes must decode to the identity")
	}
	if !bytes.Equal(encode(nil, &group.Point{}, func(c *codec.Coder, p *group.Point) { points(c, p) }), make([]byte, pointLen)) {
		t.Fatal("the identity must encode as 33 zero bytes")
	}
}

// TestHashPostBindsTheEncoding: the signed digest covers every field of the
// post but its signature, with counts — so moving an entry from Openings to
// Proofs, which the old field walk hashed identically, changes it.
func TestHashPostBindsTheEncoding(t *testing.T) {
	s := func(v int64) *big.Int { return big.NewInt(v) }
	base := TrusteePost{Trustee: 0, ShareIndex: 1, Openings: []OpeningShare{{Serial: 1,
		Ms: []*big.Int{s(1), s(2), s(3), s(4)}, Rs: []*big.Int{s(5)}}}}
	moved := base
	moved.Openings = nil
	moved.Proofs = []ProofFinalShare{{Serial: 1, Bits: []zkp.BitFinal{{C0: s(1), C1: s(2), Z0: s(3), Z1: s(4)}},
		Sum: zkp.SumFinal{Z: s(5)}}}
	other := base
	other.Trustee = 1
	signed := base
	signed.Sig = []byte("signature")
	want := HashPost("e", &base)
	rows := []struct {
		name    string
		id      string
		post    *TrusteePost
		differs bool
	}{
		{"an entry moved from Openings to Proofs", "e", &moved, true},
		{"another trustee", "e", &other, true},
		{"another election", "f", &base, true},
		{"the signature", "e", &signed, false},
	}
	for _, r := range rows {
		if got := HashPost(r.id, r.post); (got != want) != r.differs {
			t.Errorf("%s: digest differs = %v, want %v", r.name, got != want, r.differs)
		}
	}
}

// TestReaderDecodesOnlyTheWinner is the trust argument of the Reader: with
// fb = 2 of five replicas hostile — one serving bytes that decode to
// nothing, one a decodable lie — the three honest replies win on the
// digests of their bytes, and the decoder is handed the winner's bytes once.
// A decoder that panics on anything else never fires.
func TestReaderDecodesOnlyTheWinner(t *testing.T) {
	honest := EncodeVoteSet([]vc.VotedBallot{{Serial: 1, Code: []byte("code")}})
	garbage := []byte{0xff, 0xff, 0xff, 0xff, 1}
	lie := EncodeVoteSet(nil)
	serve := func(b []byte) API { return ReadFunc(func(Kind) ([]byte, error) { return b, nil }) }
	reader := NewReader([]API{serve(garbage), serve(honest), serve(lie), serve(honest), serve(honest)})
	decodes := 0
	set, err := readAs(reader, KindVoteSet, func(c *codec.Coder, set *[]vc.VotedBallot) {
		decodes++
		if !bytes.Equal(c.Rest(), honest) {
			panic("a minority replica's bytes reached a decoder")
		}
		wire.WalkVoteSet(c, set)
	})
	if err != nil || decodes != 1 || len(set) != 1 || set[0].Serial != 1 {
		t.Fatalf("set = %v, err = %v, decodes = %d", set, err, decodes)
	}
}

// FuzzBoardDecode feeds arbitrary bytes to every board decoder and every EA
// file reader, under the decoder oracle (codectest.Check): none may panic or
// allocate past its bound, and anything a decoder accepts must re-encode to the same bytes —
// the property the Reader's digest comparison rests on.
func FuzzBoardDecode(f *testing.F) {
	for _, b := range sampleArtefacts(f) {
		f.Add(b)
	}
	for _, b := range sampleFiles(f) {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, c := range boardDecoders {
			_ = codectest.Check(t, b, c.decode)
		}
		for _, d := range fileDecoders {
			_ = codectest.Check(t, b, d.decode)
		}
	})
}

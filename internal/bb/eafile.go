package bb

import (
	"errors"
	"fmt"
	"math/big"
	"os"

	"ddemos/internal/ballot"
	"ddemos/internal/codec"
	"ddemos/internal/crypto/zkp"
	"ddemos/internal/ea"
	"ddemos/internal/store"
)

// The files ddemos-ea writes are laid out here, with the board's rules and
// field helpers: a header — the kind's magic as a string, then a u16
// version — and one walk. The BB and manifest files' bodies are the init and
// manifest artefacts a replica serves. A per-ballot file's walk ends in a
// count and one element per ballot, so ddemos-ea streams it ballot by
// ballot, while a reader decodes the whole file under the codec's rules: no
// count sizes anything before the bytes to back it exist.

const fileVersion = 1

// perBallotMin is the least encoding of a per-ballot element: a serial and
// two part counts.
const perBallotMin = 8 + 4 + 4

// File is one kind of EA file: an F, with one E per ballot when list is set.
type File[F, E any] struct {
	magic string
	head  func(*codec.Coder, *F)
	list  func(*F) *[]E
	elem  func(*codec.Coder, *E)
}

// The EA's files. VCFile never holds the inline Ballots: a VC opens its pool
// from the segment directory BallotsDir names.
var (
	ManifestFile = File[ea.Manifest, struct{}]{magic: "ddemos/manifest", head: walkManifest}
	InitFile     = File[ea.BBInit, ea.BBBallot]{magic: "ddemos/bb-init", head: initHead,
		list: func(in *ea.BBInit) *[]ea.BBBallot { return &in.Ballots }, elem: walkBBBallot}
	VCFile      = File[ea.VCInit, struct{}]{magic: "ddemos/vc-init", head: walkVCInit}
	TrusteeFile = File[ea.TrusteeInit, ea.TrusteeBallot]{magic: "ddemos/trustee-init", head: trusteeHead,
		list: func(t *ea.TrusteeInit) *[]ea.TrusteeBallot { return &t.Ballots }, elem: walkTrusteeBallot}
	BallotsFile = File[[]*ballot.Ballot, *ballot.Ballot]{magic: "ddemos/ballots", head: func(*codec.Coder, *[]*ballot.Ballot) {},
		list: func(p *[]*ballot.Ballot) *[]*ballot.Ballot { return p }, elem: walkBallot}
)

func (f File[F, E]) header() *codec.Coder {
	c := codec.Encoder(nil)
	magic, version := f.magic, uint16(fileVersion)
	c.String(&magic, len(magic))
	c.U16(&version)
	return c
}

func (f File[F, E]) body(c *codec.Coder, v *F) {
	if f.head(c, v); f.list != nil {
		codec.List(c, f.list(v), perBallotMin, f.elem)
	}
}

// Encode returns the whole file holding v.
func (f File[F, E]) Encode(v *F) []byte {
	c := f.header()
	f.body(c, v)
	return c.Out()
}

// Decode reads a whole file: this kind's header at this version, then a
// body every byte of which decodes.
func (f File[F, E]) Decode(b []byte) (v F, err error) {
	c := codec.Decoder(b)
	magic, version := "", uint16(0)
	c.String(&magic, len(f.magic))
	if c.U16(&version); c.Bad() || magic != f.magic || version != fileVersion {
		return v, fmt.Errorf("%w: not a version %d %s file", ErrMalformed, fileVersion, f.magic)
	}
	if f.body(c, &v); !c.Done() {
		return *new(F), fmt.Errorf("%w: the body of a %s file", ErrMalformed, f.magic)
	}
	return v, nil
}

// Read loads the file at path; one of another kind or version, a truncated
// one or one an older ddemos-ea wrote is refused by name.
func (f File[F, E]) Read(path string) (F, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return *new(F), fmt.Errorf("bb: %w", err)
	}
	v, err := f.Decode(b)
	if err != nil {
		return v, fmt.Errorf("%s: %w; re-run ddemos-ea", path, err)
	}
	return v, nil
}

// Write publishes the file holding v at path.
func (f File[F, E]) Write(path string, v *F) error {
	return store.WriteFileAtomic(path, f.Encode(v))
}

// Stream writes a per-ballot file one ballot at a time: Create writes the
// header, the head and the count, Append one element, and Close publishes
// the file once the count is met.
type Stream[E any] struct {
	*store.AtomicFile
	elem func(*codec.Coder, *E)
	buf  []byte
	left int
}

// Create starts the file holding v, without v's own list, and n elements.
func (f File[F, E]) Create(path string, v *F, n int) (*Stream[E], error) {
	out, err := store.CreateAtomic(path)
	if err != nil {
		return nil, err
	}
	c := f.header()
	f.head(c, v)
	c.Count(n, perBallotMin)
	_, _ = out.Write(c.Out()) // a write error sticks and surfaces in Append or Close
	return &Stream[E]{AtomicFile: out, elem: f.elem, left: n}, nil
}

// Append writes the next element.
func (s *Stream[E]) Append(e *E) error {
	if s.left--; s.left < 0 {
		return errors.New("bb: more elements than the count written")
	}
	c := codec.Encoder(s.buf[:0])
	s.elem(c, e)
	s.buf = c.Out()
	_, err := s.Write(s.buf)
	return err
}

// Close publishes the file, or discards it with elements missing.
func (s *Stream[E]) Close() error {
	if s.left != 0 {
		s.Abort()
		return fmt.Errorf("bb: %d elements short of the count written", s.left)
	}
	return s.AtomicFile.Close()
}

// --- layouts ---------------------------------------------------------------

func walkVCInit(c *codec.Coder, v *ea.VCInit) {
	walkManifest(c, &v.Manifest)
	c.Int(&v.Index)
	anyBytes(c, (*[]byte)(&v.Private))
	walkMskShare(c, &v.Msk)
	codec.List(c, &v.LinkKeys, 4, anyBytes)
	str(c, &v.BallotsDir)
}

func trusteeHead(c *codec.Coder, t *ea.TrusteeInit) {
	walkManifest(c, &t.Manifest)
	c.Int(&t.Index)
	anyBytes(c, (*[]byte)(&t.Private))
}

func walkTrusteeBallot(c *codec.Coder, b *ea.TrusteeBallot) {
	c.U64(&b.Serial)
	for part := range b.Parts {
		codec.List(c, &b.Parts[part], 4+4+4+2*scalarLen, walkTrusteeRow)
	}
}

func walkTrusteeRow(c *codec.Coder, r *ea.TrusteeRow) {
	scalars(c, &r.MShares)
	scalars(c, &r.RShares)
	codec.List(c, &r.BitCoeffs, 8*scalarLen, func(c *codec.Coder, b *zkp.BitCoeffs) {
		for _, s := range []**big.Int{&b.AC0, &b.BC0, &b.AC1, &b.BC1, &b.AZ0, &b.BZ0, &b.AZ1, &b.BZ1} {
			scalar(c, s)
		}
	})
	scalar(c, &r.SumCoeffs.A)
	scalar(c, &r.SumCoeffs.B)
}

func walkBallot(c *codec.Coder, b **ballot.Ballot) {
	if c.Decoding() {
		*b = new(ballot.Ballot)
	}
	c.U64(&(*b).Serial)
	for part := range (*b).Parts {
		codec.List(c, &(*b).Parts[part].Lines, 4+4+4, func(c *codec.Coder, l *ballot.Line) {
			anyBytes(c, &l.VoteCode)
			str(c, &l.Option)
			anyBytes(c, &l.Receipt)
		})
	}
}

package bb

import (
	"crypto/sha256"
	"errors"

	"ddemos/internal/codec"
	"ddemos/internal/ea"
	"ddemos/internal/vc"
	"ddemos/internal/wire"
)

// API is one Bulletin Board replica as a reader sees it: the encoded
// artefacts it serves (codec.go). Node implements it; so do ReadFunc
// adapters such as the HTTP client's view and forwarding handles.
type API interface {
	Read(kind Kind) ([]byte, error)
}

// ReadFunc adapts a function to API.
type ReadFunc func(kind Kind) ([]byte, error)

// Read implements API.
func (f ReadFunc) Read(kind Kind) ([]byte, error) { return f(kind) }

var _ API = (*Node)(nil)

// ErrNoMajority is returned when fewer than fb+1 BB nodes agree.
var ErrNoMajority = errors.New("bb: no majority among replies")

// Reader queries all BB nodes and returns the answer backed by at least
// fb+1 of them — the paper's replicated-service reader (§V implemented it
// as a Firefox extension; here it is a library any client embeds). Because
// at most fb nodes are Byzantine and honest nodes only ever serve correct
// (possibly stale) data, fb+1 identical replies are necessarily correct.
type Reader struct {
	nodes []API
	need  int
}

// NewReader builds a majority reader over the given replicas.
func NewReader(nodes []API) *Reader {
	fb := (len(nodes) - 1) / 2
	return &Reader{nodes: nodes, need: fb + 1}
}

// Read returns the bytes fb+1 replicas served for kind. Replies are
// compared by the SHA-256 of the bytes received — the encoding is
// canonical, so equal artefacts are equal bytes — and none is parsed: a
// minority replica's reply is hashed, never decoded. Only the typed reads
// decode, and only the winner.
func (r *Reader) Read(kind Kind) ([]byte, error) {
	type bucket struct {
		sum   [32]byte
		val   []byte
		count int
	}
	var buckets []bucket
	for _, n := range r.nodes {
		b, err := n.Read(kind)
		if err != nil {
			continue
		}
		sum := sha256.Sum256(b)
		i := 0
		for i < len(buckets) && buckets[i].sum != sum {
			i++
		}
		if i == len(buckets) {
			buckets = append(buckets, bucket{sum: sum, val: b})
		}
		if buckets[i].count++; buckets[i].count >= r.need {
			return buckets[i].val, nil
		}
	}
	return nil, ErrNoMajority
}

// readAs decodes the majority's bytes for kind. A majority that agrees on
// bytes that do not decode yields ErrMalformed.
func readAs[T any](r *Reader, kind Kind, walk func(*codec.Coder, *T)) (T, error) {
	b, err := r.Read(kind)
	if err != nil {
		var zero T
		return zero, err
	}
	return decode(kind, b, walk)
}

func ptr[T any](v T, err error) (*T, error) {
	if err != nil {
		return nil, err
	}
	return &v, nil
}

// Manifest reads the election manifest by majority.
func (r *Reader) Manifest() (ea.Manifest, error) { return readAs(r, KindManifest, walkManifest) }

// Init reads the full initialization data by majority.
func (r *Reader) Init() (*ea.BBInit, error) { return ptr(readAs(r, KindInit, InitFile.body)) }

// VoteSet reads the agreed vote set by majority.
func (r *Reader) VoteSet() ([]vc.VotedBallot, error) { return readAs(r, KindVoteSet, wire.WalkVoteSet) }

// Cast reads the published cast data by majority.
func (r *Reader) Cast() (*CastData, error) { return ptr(readAs(r, KindCast, walkCast)) }

// Result reads the final result by majority.
func (r *Reader) Result() (*Result, error) { return ptr(readAs(r, KindResult, walkResult)) }

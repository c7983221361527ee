package transport

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

// LinkKeySize is the length of one pairwise link key.
const LinkKeySize = 32

// TagSize is the length of the HMAC-SHA256 tag that leads every
// authenticated frame.
const TagSize = sha256.Size

// Authenticated wraps an Endpoint with pairwise link authentication, the
// paper's authenticated channels between VC nodes. Nodes i and j share the
// key K_{min(i,j),max(i,j)}, dealt by the EA at setup. Every outgoing payload
// is prefixed with HMAC-SHA256 under the link's key over (from, to, payload);
// an incoming frame whose tag does not check under the key of the sender it
// claims is counted and dropped. A third node holds neither key of a link, so
// it cannot put a frame on that link in another node's name. Stacked under a
// Batcher, the payload is a whole batch: one tag per flush.
//
// A tag convinces the receiver only; it is not evidence for anyone else, and
// nothing above relies on it being so (endorsements and certificates carry
// signatures of their own). It does not stop a replayed frame.
type Authenticated struct {
	inner   Endpoint
	keys    [][]byte // by peer NodeID
	out     chan Envelope
	dropped atomic.Int64
}

var _ Endpoint = (*Authenticated)(nil)

// NewAuthenticated wraps inner. keys[j] is the key inner's node shares with
// node j (the own entry is ignored); every other entry must be LinkKeySize
// bytes.
func NewAuthenticated(inner Endpoint, keys [][]byte) (*Authenticated, error) {
	self := int(inner.ID())
	if len(keys) <= self || len(keys) < 2 {
		return nil, errors.New("transport: no link keys for this node")
	}
	for j, k := range keys {
		if j != self && len(k) != LinkKeySize {
			return nil, fmt.Errorf("transport: link key %d-%d is %d bytes, want %d", self, j, len(k), LinkKeySize)
		}
	}
	// out is as deep as the other endpoints' receive queues (Memnet,
	// Batcher), so the check adds no earlier back-pressure.
	a := &Authenticated{inner: inner, keys: keys, out: make(chan Envelope, 256)}
	go a.pump()
	return a, nil
}

// ID implements Endpoint.
func (a *Authenticated) ID() NodeID { return a.inner.ID() }

// Send implements Endpoint: prepends the link's tag to the payload.
func (a *Authenticated) Send(to NodeID, payload []byte) error {
	key := a.key(to)
	if key == nil {
		return ErrUnknownPeer
	}
	framed := tag(key, a.ID(), to, payload, make([]byte, 0, TagSize+len(payload)))
	return a.inner.Send(to, append(framed, payload...))
}

// Recv implements Endpoint, yielding only authenticated messages.
func (a *Authenticated) Recv() <-chan Envelope { return a.out }

// Close implements Endpoint.
func (a *Authenticated) Close() error { return a.inner.Close() }

// Dropped reports how many inbound frames failed authentication.
func (a *Authenticated) Dropped() int64 { return a.dropped.Load() }

// key is the key of the link to peer, or nil if there is none.
func (a *Authenticated) key(peer NodeID) []byte {
	if int(peer) >= len(a.keys) || peer == a.ID() {
		return nil
	}
	return a.keys[peer]
}

func (a *Authenticated) pump() {
	defer close(a.out)
	var want [TagSize]byte
	for env := range a.inner.Recv() {
		key := a.key(env.From)
		if key == nil || len(env.Payload) < TagSize ||
			!hmac.Equal(tag(key, env.From, env.To, env.Payload[TagSize:], want[:0]), env.Payload[:TagSize]) {
			a.dropped.Add(1)
			continue
		}
		a.out <- Envelope{From: env.From, To: env.To, Payload: env.Payload[TagSize:]}
	}
}

// tag appends HMAC-SHA256(key, from ‖ to ‖ payload) to dst.
func tag(key []byte, from, to NodeID, payload, dst []byte) []byte {
	var route [4]byte
	binary.BigEndian.PutUint16(route[:2], uint16(from))
	binary.BigEndian.PutUint16(route[2:], uint16(to))
	h := hmac.New(sha256.New, key)
	h.Write(route[:])
	h.Write(payload)
	return h.Sum(dst)
}

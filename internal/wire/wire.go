// Package wire defines the binary message format exchanged between Vote
// Collector nodes: the voting protocol messages of §III-E (ENDORSE,
// ENDORSEMENT, VOTE_P), the vote-set-consensus messages (ANNOUNCE-SET,
// RECOVER-REQUEST, RECOVER-RESPONSE, VSC-FINAL), the batched binary-consensus
// payloads, the ACS engine's reliable-broadcast messages, and the Batch
// envelope that coalesces many protocol messages into one frame for the
// high-throughput transport pipeline (DESIGN.md, "Batched message
// pipeline").
//
// Every frame is Kind (1 byte) || body, and each message lays its body out
// once, as a walk over internal/codec. Deserialization is strict: trailing
// bytes, truncation and oversized counts are errors.
package wire

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"

	"ddemos/internal/codec"
)

// Kind identifies the message type of a frame.
type Kind uint8

// Message kinds. Start at 1 so the zero value is invalid. A retired kind
// keeps its number, so no later kind takes it.
const (
	KindEndorse Kind = iota + 1
	KindEndorsement
	KindVoteP
	_ // 4: the entry-carrying ANNOUNCE, retired for ANNOUNCE-SET
	KindRecoverRequest
	KindRecoverResponse
	KindConsensus
	KindBatch
	KindVSCFinal
	KindRBCEcho
	KindRBCReady
	KindRBCDigest
	KindRBCPull
	KindAnnounceSet
)

// kinds names each message kind and makes the empty message Decode walks.
var kinds = [...]struct {
	name string
	new  func() Message
}{
	KindEndorse:         {"ENDORSE", func() Message { return new(Endorse) }},
	KindEndorsement:     {"ENDORSEMENT", func() Message { return new(Endorsement) }},
	KindVoteP:           {"VOTE_P", func() Message { return new(VoteP) }},
	KindRecoverRequest:  {"RECOVER-REQUEST", func() Message { return new(RecoverRequest) }},
	KindRecoverResponse: {"RECOVER-RESPONSE", func() Message { return new(RecoverResponse) }},
	KindConsensus:       {"CONSENSUS", func() Message { return new(Consensus) }},
	KindBatch:           {"BATCH", func() Message { return new(Batch) }},
	KindVSCFinal:        {"VSC-FINAL", func() Message { return new(VSCFinal) }},
	KindRBCEcho:         {"RBC-ECHO", func() Message { return new(RBCEcho) }},
	KindRBCReady:        {"RBC-READY", func() Message { return new(RBCReady) }},
	KindRBCDigest:       {"RBC-DIGEST", func() Message { return new(RBCDigest) }},
	KindRBCPull:         {"RBC-PULL", func() Message { return new(RBCPull) }},
	KindAnnounceSet:     {"ANNOUNCE-SET", func() Message { return new(AnnounceSet) }},
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kinds) && kinds[k].new != nil {
		return kinds[k].name
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// maxBytesLen bounds a single byte-string field.
const maxBytesLen = 1 << 20

// A VOTE_P share path is whole SHA-256 hashes, at most maxSharePathHashes of
// them: a ballot store holds at most 2^16 options per part (store
// maxDiskLines), so a node's share tree has at most 2^17 leaves, and the
// ballot tree over at most 64 nodes' roots adds at most 6 hashes.
const (
	sharePathHash      = 32
	maxSharePathHashes = 17 + 6
)

// Least encoded size of each counted element with variable-length parts (a
// byte string is at least its u32 length prefix): what codec.Count divides
// the bytes left by.
const (
	minSigEntry       = 2 + 4            // signer, sig
	minUCert          = 8 + 4 + 4        // serial, code, sig count
	minAnnounceEntry  = 8 + 4 + minUCert // serial, code, cert
	minVSCEntry       = 8 + 4            // serial, code
	minConsensusGroup = 1 + 1 + 2 + 4    // step, value, round, instance count
	minBatchFrame     = 4                // length prefix
)

// ErrMalformed is wrapped by all decoding errors.
var ErrMalformed = errors.New("wire: malformed message")

// Message is implemented by every protocol message.
type Message interface {
	Kind() Kind
	walk(c *codec.Coder)
}

// Encode serializes a message to a framed byte slice. The first allocation
// holds the small frames whole.
func Encode(m Message) []byte {
	c := codec.Encoder(append(make([]byte, 0, 64), byte(m.Kind())))
	m.walk(c)
	return c.Out()
}

// Decode parses a framed message.
func Decode(frame []byte) (Message, error) {
	if len(frame) < 1 {
		return nil, fmt.Errorf("%w: empty frame", ErrMalformed)
	}
	k := Kind(frame[0])
	if int(k) >= len(kinds) || kinds[k].new == nil {
		return nil, fmt.Errorf("%w: unknown kind %d", ErrMalformed, frame[0])
	}
	m := kinds[k].new()
	c := codec.Decoder(frame[1:])
	if m.walk(c); !c.Done() {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, k)
	}
	return m, nil
}

// --- voting protocol messages ---------------------------------------------

// Endorse asks every VC node to endorse (serial, vote-code) as the unique
// code for the ballot.
type Endorse struct {
	Serial uint64
	Code   []byte
}

// Kind implements Message.
func (*Endorse) Kind() Kind { return KindEndorse }

func (m *Endorse) walk(c *codec.Coder) {
	c.U64(&m.Serial)
	c.Bytes(&m.Code, maxBytesLen)
}

// Endorsement is a VC node's signature endorsing (serial, vote-code).
type Endorsement struct {
	Serial uint64
	Code   []byte
	Signer uint16 // VC node index
	Sig    []byte
}

// Kind implements Message.
func (*Endorsement) Kind() Kind { return KindEndorsement }

func (m *Endorsement) walk(c *codec.Coder) {
	c.U64(&m.Serial)
	c.Bytes(&m.Code, maxBytesLen)
	c.U16(&m.Signer)
	c.Bytes(&m.Sig, maxBytesLen)
}

// SigEntry is one endorsement signature inside a uniqueness certificate.
type SigEntry struct {
	Signer uint16
	Sig    []byte
}

// UCert is the uniqueness certificate: Nv-fv endorsement signatures for the
// same (serial, vote-code). Its existence guarantees no other vote code can
// be certified for the ballot.
type UCert struct {
	Serial uint64
	Code   []byte
	Sigs   []SigEntry
}

// Walk codes the certificate: the one layout of a UCERT in frames and in
// the VC journal's records.
func (u *UCert) Walk(c *codec.Coder) {
	c.U64(&u.Serial)
	c.Bytes(&u.Code, maxBytesLen)
	codec.List(c, &u.Sigs, minSigEntry, func(c *codec.Coder, s *SigEntry) {
		c.U16(&s.Signer)
		c.Bytes(&s.Sig, maxBytesLen)
	})
}

// VoteP discloses a node's receipt share for a certified (serial, code),
// carrying the UCERT so receivers can join without having seen the ENDORSE
// round.
type VoteP struct {
	Serial     uint64
	Code       []byte
	ShareIndex uint32
	ShareValue []byte // 32-byte scalar
	// ShareSig is the EA's signature over the ballot's root; SharePath is
	// the share's audit path up to that root (through the sender's share
	// tree, then the ballot tree), concatenated 32-byte hashes.
	ShareSig  []byte
	SharePath []byte
	Cert      UCert
}

// Kind implements Message.
func (*VoteP) Kind() Kind { return KindVoteP }

func (m *VoteP) walk(c *codec.Coder) {
	c.U64(&m.Serial)
	c.Bytes(&m.Code, maxBytesLen)
	c.U32(&m.ShareIndex)
	c.Bytes(&m.ShareValue, maxBytesLen)
	c.Bytes(&m.ShareSig, maxBytesLen)
	// The share path is refused before anything is copied when its length
	// is not whole hashes or exceeds maxSharePathHashes.
	n := uint32(len(m.SharePath)) //nolint:gosec // bounded below
	if c.U32(&n); n%sharePathHash != 0 || n > maxSharePathHashes*sharePathHash {
		c.Fail()
	}
	if c.Decoding() {
		m.SharePath = bytes.Clone(c.Next(int(n)))
	} else {
		c.Fixed(m.SharePath)
	}
	m.Cert.Walk(c)
}

// --- vote set consensus messages ------------------------------------------

// AnnounceEntry reports one ballot's certified vote code.
type AnnounceEntry struct {
	Serial uint64
	Code   []byte
	Cert   UCert
}

// walkEntries is the one layout of an entry list (count, then entries) that
// RECOVER-RESPONSE and RBC-ECHO share.
func walkEntries(c *codec.Coder, entries *[]AnnounceEntry) {
	codec.List(c, entries, minAnnounceEntry, func(c *codec.Coder, e *AnnounceEntry) {
		c.U64(&e.Serial)
		c.Bytes(&e.Code, maxBytesLen)
		e.Cert.Walk(c)
	})
}

// AnnounceSet names the ballots a node holds a certified code for at
// election end: the paper's per-ballot ANNOUNCE, batched over the pool and
// carrying serials, not entries. UCERT uniqueness makes a serial name its one
// certifiable code, so a receiver needs the entry only for a serial it holds
// no certificate for, and pulls exactly those with a RECOVER-REQUEST.
//
// Bitmap is a SerialBitmap over the pool. The decoder bounds it by the frame
// cap only; the receiver, which knows the pool, refuses one longer than it.
type AnnounceSet struct {
	Sender uint16
	Bitmap SerialBitmap
}

// Kind implements Message.
func (*AnnounceSet) Kind() Kind { return KindAnnounceSet }

func (m *AnnounceSet) walk(c *codec.Coder) {
	c.U16(&m.Sender)
	c.Bytes((*[]byte)(&m.Bitmap), maxBytesLen)
}

// SerialBitmap is a set of ballot serials: serial s is bit (s-1)%8, least
// significant first, of byte (s-1)/8.
type SerialBitmap []byte

// NewSerialBitmap returns the empty set over serials 1..n.
func NewSerialBitmap(n int) SerialBitmap { return make(SerialBitmap, (n+7)/8) }

// Set adds serial s, which must be in the bitmap's range.
func (b SerialBitmap) Set(s uint64) { b[(s-1)/8] |= 1 << ((s - 1) % 8) }

// Has reports whether serial s is in the set; serials past the bitmap are
// not.
func (b SerialBitmap) Has(s uint64) bool {
	return s >= 1 && (s-1)/8 < uint64(len(b)) && b[(s-1)/8]&(1<<((s-1)%8)) != 0
}

// Within reports whether every serial in the set is in 1..n: the bitmap is
// no longer than n serials need, and no bit past serial n is set.
func (b SerialBitmap) Within(n int) bool {
	if len(b) > (n+7)/8 {
		return false
	}
	if len(b) < (n+7)/8 || n%8 == 0 {
		return true
	}
	return b[len(b)-1]>>(n%8) == 0
}

// RecoverRequest asks peers for the certified codes of ballots that decided
// "voted" in consensus but whose code is locally unknown (§III-E step 5b).
type RecoverRequest struct {
	Serials []uint64
}

// Kind implements Message.
func (*RecoverRequest) Kind() Kind { return KindRecoverRequest }

func (m *RecoverRequest) walk(c *codec.Coder) { codec.List(c, &m.Serials, 8, (*codec.Coder).U64) }

// RecoverResponse answers a RecoverRequest with certified codes.
type RecoverResponse struct {
	Entries []AnnounceEntry
}

// Kind implements Message.
func (*RecoverResponse) Kind() Kind { return KindRecoverResponse }

func (m *RecoverResponse) walk(c *codec.Coder) { walkEntries(c, &m.Entries) }

// VSCEntry is one ⟨serial, code⟩ tuple of a final agreed vote set.
type VSCEntry struct {
	Serial uint64
	Code   []byte
}

// WalkVoteSet codes a vote set, count | {serial u64 | code bytes}: the one
// layout of the set in VSC-FINAL, in the VC journal and on the board.
func WalkVoteSet(c *codec.Coder, set *[]VSCEntry) {
	codec.List(c, set, minVSCEntry, func(c *codec.Coder, e *VSCEntry) {
		c.U64(&e.Serial)
		c.Bytes(&e.Code, maxBytesLen)
	})
}

// VSCFinal carries a node's completed vote-set-consensus result, signed with
// its vote-set signature. It is the consensus-phase recovery channel: a node
// that restarted mid-consensus re-announces, and peers that already finished
// reply with their final set; fv+1 matching signed sets contain one from an
// honest node, so the agreed set can be adopted without re-running the
// binary-consensus instances the restarted node slept through.
type VSCFinal struct {
	Sender  uint16
	Entries []VSCEntry
	Sig     []byte
}

// Kind implements Message.
func (*VSCFinal) Kind() Kind { return KindVSCFinal }

func (m *VSCFinal) walk(c *codec.Coder) {
	c.U16(&m.Sender)
	WalkVoteSet(c, &m.Entries)
	c.Bytes(&m.Sig, maxBytesLen)
}

// --- batched binary consensus ---------------------------------------------

// Consensus step identifiers.
const (
	StepBVal   uint8 = 1
	StepAux    uint8 = 2
	StepDecide uint8 = 3
)

// ConsensusGroup aggregates one (step, round, value) tuple over many
// consensus instances, identified by their uint32 indices.
type ConsensusGroup struct {
	Step      uint8
	Round     uint16
	Value     uint8
	Instances []uint32
}

// Consensus is the batched binary-consensus message: all the per-instance
// protocol messages a node emits in one flush, grouped for network
// efficiency (the paper's "binary consensus in batches of arbitrary size").
// Both vote-set-consensus engines speak it — the interlocked engine with one
// instance per ballot, the ACS engine with one per broadcaster — and an
// election installs exactly one of them.
type Consensus struct {
	Sender uint16
	Groups []ConsensusGroup
}

// Kind implements Message.
func (*Consensus) Kind() Kind { return KindConsensus }

func (m *Consensus) walk(c *codec.Coder) {
	c.U16(&m.Sender)
	codec.List(c, &m.Groups, minConsensusGroup, func(c *codec.Coder, g *ConsensusGroup) {
		c.U8(&g.Step)
		c.U8(&g.Value)
		c.U16(&g.Round)
		codec.List(c, &g.Instances, 4, (*codec.Coder).U32)
	})
}

// --- ACS engine messages (reliable broadcast) -------------------------------

// RBCEcho carries one proposal payload of the ACS engine's reliable
// broadcast: it is the answer to an RBC-PULL, sent by a node that holds the
// payload the pull names. The broadcast itself — SEND, ECHO and READY —
// votes on the payload's Digest and never carries it.
//
// The entry list travels as one canonical byte string (count, then entries)
// that the broadcast hashes and relays as-is. Both views are fixed when the
// message is made — NewRBCEcho encodes the entries, the decoder keeps the
// bytes it accepted — so they cannot drift apart. The zero value carries the
// empty proposal.
type RBCEcho struct {
	Sender      uint16
	Broadcaster uint16

	entries []AnnounceEntry
	payload []byte // canonical encoding of entries; nil means noEntries
}

// noEntries is the canonical encoding of the empty entry list.
var noEntries = encodeEntries(nil)

func encodeEntries(entries []AnnounceEntry) []byte {
	c := codec.Encoder(make([]byte, 0, entriesSize(entries)))
	walkEntries(c, &entries)
	return c.Out()
}

// entriesSize is the encoded length of an entry list, so a whole election's
// proposal is encoded into one allocation. It only sizes the buffer: were it
// to disagree with walkEntries, the encoder would grow the slice as usual.
func entriesSize(entries []AnnounceEntry) int {
	n := 4
	for i := range entries {
		e := &entries[i]
		n += 8 + 4 + len(e.Code) + 8 + 4 + len(e.Cert.Code) + 4
		for _, s := range e.Cert.Sigs {
			n += 2 + 4 + len(s.Sig)
		}
	}
	return n
}

// NewRBCEcho builds sender's copy of broadcaster's proposal, encoding the
// entries once. The message keeps the slice: callers hand it over.
func NewRBCEcho(sender, broadcaster uint16, entries []AnnounceEntry) *RBCEcho {
	return &RBCEcho{Sender: sender, Broadcaster: broadcaster,
		entries: entries, payload: encodeEntries(entries)}
}

// Kind implements Message.
func (*RBCEcho) Kind() Kind { return KindRBCEcho }

// Entries returns the proposal's entries. Callers must not modify them.
func (m *RBCEcho) Entries() []AnnounceEntry { return m.entries }

// Payload returns the canonical encoding of the entry list: what follows the
// sender and broadcaster fields in the frame. Callers must not modify it.
func (m *RBCEcho) Payload() []byte {
	if m.payload == nil {
		return noEntries
	}
	return m.payload
}

// Digest is the SHA-256 of Payload: the name of the proposal in RBC-DIGEST,
// RBC-READY and RBC-PULL.
func (m *RBCEcho) Digest() [32]byte { return sha256.Sum256(m.Payload()) }

// Relay returns the same payload sent by sender as broadcaster's proposal,
// sharing the entries and their encoding with m.
func (m *RBCEcho) Relay(sender, broadcaster uint16) *RBCEcho {
	return &RBCEcho{Sender: sender, Broadcaster: broadcaster, entries: m.entries, payload: m.payload}
}

func (m *RBCEcho) walk(c *codec.Coder) {
	c.U16(&m.Sender)
	c.U16(&m.Broadcaster)
	if !c.Decoding() {
		c.Fixed(m.Payload())
		return
	}
	body := c.Rest()
	if walkEntries(c, &m.entries); !c.Bad() {
		// Like every decoded byte string, the payload is a copy: the message
		// never aliases the frame it came from.
		m.payload = bytes.Clone(body[:len(body)-len(c.Rest())])
	}
}

// RBCReady is the READY step of the Bracha reliable broadcast: a vote that
// the payload whose Digest is Hash is the broadcaster's unique proposal.
type RBCReady struct {
	Sender      uint16
	Broadcaster uint16
	Hash        []byte
}

// Kind implements Message.
func (*RBCReady) Kind() Kind { return KindRBCReady }

func (m *RBCReady) walk(c *codec.Coder) {
	c.U16(&m.Sender)
	c.U16(&m.Broadcaster)
	c.Bytes(&m.Hash, maxBytesLen)
}

// RBCDigest is the SEND and ECHO steps of the Bracha reliable broadcast: a
// vote that the broadcaster's proposal is the payload whose Digest is Hash.
// The broadcaster's own (Sender == Broadcaster) is the SEND. A node sends
// the ECHO only while it holds that payload, so every ECHO names a node a
// pull can fetch the payload from.
type RBCDigest struct {
	Sender      uint16
	Broadcaster uint16
	Hash        [32]byte
}

// Kind implements Message.
func (*RBCDigest) Kind() Kind { return KindRBCDigest }

func (m *RBCDigest) walk(c *codec.Coder) {
	c.U16(&m.Sender)
	c.U16(&m.Broadcaster)
	c.Fixed(m.Hash[:])
}

// RBCPull asks one peer for the payload whose Digest is Hash, as
// broadcaster's proposal. The answer is an RBCEcho carrying it. It is laid
// out as an RBCDigest.
type RBCPull RBCDigest

// Kind implements Message.
func (*RBCPull) Kind() Kind { return KindRBCPull }

func (m *RBCPull) walk(c *codec.Coder) { (*RBCDigest)(m).walk(c) }

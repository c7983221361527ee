// Package wire defines the binary message format exchanged between Vote
// Collector nodes: the voting protocol messages of §III-E (ENDORSE,
// ENDORSEMENT, VOTE_P), the vote-set-consensus messages (ANNOUNCE,
// RECOVER-REQUEST, RECOVER-RESPONSE), the batched binary-consensus
// payloads, and the Batch envelope that coalesces many protocol messages
// into one frame for the high-throughput transport pipeline (DESIGN.md,
// "Batched message pipeline").
//
// Every frame is Kind (1 byte) || body, and each message lays its body out
// once, as a walk over internal/codec. Deserialization is strict: trailing
// bytes, truncation and oversized counts are errors.
package wire

import (
	"bytes"
	"errors"
	"fmt"

	"ddemos/internal/codec"
)

// Kind identifies the message type of a frame.
type Kind uint8

// Message kinds. Start at 1 so the zero value is invalid.
const (
	KindEndorse Kind = iota + 1
	KindEndorsement
	KindVoteP
	KindAnnounce
	KindRecoverRequest
	KindRecoverResponse
	KindConsensus
	KindBatch
	KindVSCFinal
	KindRBCEcho
	KindRBCReady
)

// kinds names each message kind and makes the empty message Decode walks.
var kinds = [...]struct {
	name string
	new  func() Message
}{
	KindEndorse:         {"ENDORSE", func() Message { return new(Endorse) }},
	KindEndorsement:     {"ENDORSEMENT", func() Message { return new(Endorsement) }},
	KindVoteP:           {"VOTE_P", func() Message { return new(VoteP) }},
	KindAnnounce:        {"ANNOUNCE", func() Message { return new(Announce) }},
	KindRecoverRequest:  {"RECOVER-REQUEST", func() Message { return new(RecoverRequest) }},
	KindRecoverResponse: {"RECOVER-RESPONSE", func() Message { return new(RecoverResponse) }},
	KindConsensus:       {"CONSENSUS", func() Message { return new(Consensus) }},
	KindBatch:           {"BATCH", func() Message { return new(Batch) }},
	KindVSCFinal:        {"VSC-FINAL", func() Message { return new(VSCFinal) }},
	KindRBCEcho:         {"RBC-ECHO", func() Message { return new(RBCEcho) }},
	KindRBCReady:        {"RBC-READY", func() Message { return new(RBCReady) }},
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
// ANNOUNCE, RECOVER-RESPONSE and RBC-ECHO share.
func walkEntries(c *codec.Coder, entries *[]AnnounceEntry) {
	codec.List(c, entries, minAnnounceEntry, func(c *codec.Coder, e *AnnounceEntry) {
		c.U64(&e.Serial)
		c.Bytes(&e.Code, maxBytesLen)
		e.Cert.Walk(c)
	})
}

// Announce carries a node's complete set of known certified codes at
// election end (entries for voted ballots only; all other ballots are
// implicitly announced as null, batching the paper's per-ballot ANNOUNCE).
type Announce struct {
	Sender  uint16
	Entries []AnnounceEntry
}

// Kind implements Message.
func (*Announce) Kind() Kind { return KindAnnounce }

func (m *Announce) walk(c *codec.Coder) {
	c.U16(&m.Sender)
	walkEntries(c, &m.Entries)
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

// RBCEcho is the ECHO step of the Bracha reliable broadcast the ACS engine
// uses to disperse each node's candidate vote set. The broadcaster's own
// ECHO (Sender == Broadcaster) doubles as the SEND step: carrying the full
// entry payload in every ECHO costs one extra fan-out over hash-based
// echoing but removes the payload-fetch round a hash echo would need.
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
	c := codec.Encoder(nil)
	walkEntries(c, &entries)
	return c.Out()
}

// NewRBCEcho builds sender's ECHO of broadcaster's proposal, encoding the
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

// WithSender returns the same broadcast payload echoed by another node,
// sharing the entries and their encoding with m.
func (m *RBCEcho) WithSender(sender uint16) *RBCEcho {
	return &RBCEcho{Sender: sender, Broadcaster: m.Broadcaster, entries: m.entries, payload: m.payload}
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
// the payload hashing to Hash is the broadcaster's unique proposal.
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

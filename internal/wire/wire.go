// Package wire defines the binary message format exchanged between Vote
// Collector nodes: the voting protocol messages of §III-E (ENDORSE,
// ENDORSEMENT, VOTE_P), the vote-set-consensus messages (ANNOUNCE,
// RECOVER-REQUEST, RECOVER-RESPONSE), the batched binary-consensus
// payloads, and the Batch envelope that coalesces many protocol messages
// into one frame for the high-throughput transport pipeline (DESIGN.md,
// "Batched message pipeline"). Encoding is hand-rolled: these messages are
// the hot path of the system, mirroring the paper's use of protocol buffers
// over Netty.
//
// Every frame is Kind (1 byte) || body. Deserialization is strict: trailing
// bytes, truncation and oversized counts are errors.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindEndorse:
		return "ENDORSE"
	case KindEndorsement:
		return "ENDORSEMENT"
	case KindVoteP:
		return "VOTE_P"
	case KindAnnounce:
		return "ANNOUNCE"
	case KindRecoverRequest:
		return "RECOVER-REQUEST"
	case KindRecoverResponse:
		return "RECOVER-RESPONSE"
	case KindConsensus:
		return "CONSENSUS"
	case KindBatch:
		return "BATCH"
	case KindVSCFinal:
		return "VSC-FINAL"
	case KindRBCEcho:
		return "RBC-ECHO"
	case KindRBCReady:
		return "RBC-READY"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Limits protecting decoders from hostile inputs.
const (
	maxBytesLen = 1 << 20 // single byte-string field
	maxCount    = 1 << 22 // collection sizes
)

// A VOTE_P share path is whole SHA-256 hashes, at most maxSharePathHashes of
// them: a ballot store holds at most 2^16 options per part (store
// maxDiskLines), so a node's share tree has at most 2^17 leaves.
const (
	sharePathHash      = 32
	maxSharePathHashes = 17
)

// Least encoded size of each counted element with variable-length parts (a
// byte string is at least its u32 length prefix): what reader.count divides
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
	appendBody(dst []byte) []byte
}

// Encode serializes a message to a framed byte slice.
func Encode(m Message) []byte {
	return m.appendBody([]byte{byte(m.Kind())})
}

// Decode parses a framed message.
func Decode(frame []byte) (Message, error) {
	if len(frame) < 1 {
		return nil, fmt.Errorf("%w: empty frame", ErrMalformed)
	}
	r := &reader{buf: frame[1:]}
	var m Message
	switch Kind(frame[0]) {
	case KindEndorse:
		m = decodeEndorse(r)
	case KindEndorsement:
		m = decodeEndorsement(r)
	case KindVoteP:
		m = decodeVoteP(r)
	case KindAnnounce:
		m = decodeAnnounce(r)
	case KindRecoverRequest:
		m = decodeRecoverRequest(r)
	case KindRecoverResponse:
		m = decodeRecoverResponse(r)
	case KindConsensus:
		m = decodeConsensus(r)
	case KindBatch:
		m = decodeBatch(r)
	case KindVSCFinal:
		m = decodeVSCFinal(r)
	case KindRBCEcho:
		m = decodeRBCEcho(r)
	case KindRBCReady:
		m = decodeRBCReady(r)
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrMalformed, frame[0])
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.buf))
	}
	return m, nil
}

// --- primitives -----------------------------------------------------------

type reader struct {
	buf []byte
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated %s", ErrMalformed, what)
	}
}

func (r *reader) u8(what string) uint8 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 1 {
		r.fail(what)
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

func (r *reader) u16(what string) uint16 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 2 {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf)
	r.buf = r.buf[2:]
	return v
}

func (r *reader) u32(what string) uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 4 {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v
}

func (r *reader) u64(what string) uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *reader) bytes(what string) []byte {
	n := r.u32(what)
	if n > maxBytesLen {
		r.fail(what)
	}
	return r.take(n, what)
}

// take copies the next n bytes out of the frame.
func (r *reader) take(n uint32, what string) []byte {
	if r.err != nil {
		return nil
	}
	if int(n) > len(r.buf) {
		r.fail(what)
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[:n])
	r.buf = r.buf[n:]
	return out
}

// count reads a collection size. Decoders preallocate from it, so besides
// maxCount it is bounded by what the rest of the frame could hold: minSize is
// the least number of bytes one element encodes to.
func (r *reader) count(what string, minSize int) int {
	n := r.u32(what)
	if r.err != nil {
		return 0
	}
	if n > maxCount || int(n) > len(r.buf)/minSize {
		r.fail(what + " count")
		return 0
	}
	return int(n)
}

func appendU16(dst []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(dst, v) }
func appendU32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

func appendBytes(dst, b []byte) []byte {
	dst = appendU32(dst, uint32(len(b))) //nolint:gosec // bounded by callers
	return append(dst, b...)
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

func (m *Endorse) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.Serial)
	return appendBytes(dst, m.Code)
}

func decodeEndorse(r *reader) *Endorse {
	return &Endorse{Serial: r.u64("serial"), Code: r.bytes("code")}
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

func (m *Endorsement) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.Serial)
	dst = appendBytes(dst, m.Code)
	dst = appendU16(dst, m.Signer)
	return appendBytes(dst, m.Sig)
}

func decodeEndorsement(r *reader) *Endorsement {
	return &Endorsement{
		Serial: r.u64("serial"),
		Code:   r.bytes("code"),
		Signer: r.u16("signer"),
		Sig:    r.bytes("sig"),
	}
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

func appendUCert(dst []byte, u *UCert) []byte {
	dst = appendU64(dst, u.Serial)
	dst = appendBytes(dst, u.Code)
	dst = appendU32(dst, uint32(len(u.Sigs))) //nolint:gosec // protocol-bounded
	for _, s := range u.Sigs {
		dst = appendU16(dst, s.Signer)
		dst = appendBytes(dst, s.Sig)
	}
	return dst
}

func decodeUCert(r *reader) UCert {
	u := UCert{Serial: r.u64("ucert serial"), Code: r.bytes("ucert code")}
	n := r.count("ucert sigs", minSigEntry)
	if r.err != nil {
		return u
	}
	u.Sigs = make([]SigEntry, 0, n)
	for i := 0; i < n; i++ {
		u.Sigs = append(u.Sigs, SigEntry{Signer: r.u16("sig signer"), Sig: r.bytes("sig bytes")})
	}
	return u
}

// MarshalUCert serializes a certificate standalone — the journal and
// snapshot records of the VC persistence layer embed certificates outside
// any protocol frame.
func MarshalUCert(u *UCert) []byte {
	return appendUCert(nil, u)
}

// UnmarshalUCert parses a standalone certificate produced by MarshalUCert,
// returning the unconsumed rest of buf.
func UnmarshalUCert(buf []byte) (UCert, []byte, error) {
	r := &reader{buf: buf}
	u := decodeUCert(r)
	if r.err != nil {
		return UCert{}, nil, r.err
	}
	return u, r.buf, nil
}

// VoteP discloses a node's receipt share for a certified (serial, code),
// carrying the UCERT so receivers can join without having seen the ENDORSE
// round.
type VoteP struct {
	Serial     uint64
	Code       []byte
	ShareIndex uint32
	ShareValue []byte // 32-byte scalar
	// ShareSig is the EA's signature over the root of the sender's share
	// tree for the ballot; SharePath is the share's audit path up to that
	// root, concatenated 32-byte hashes.
	ShareSig  []byte
	SharePath []byte
	Cert      UCert
}

// Kind implements Message.
func (*VoteP) Kind() Kind { return KindVoteP }

func (m *VoteP) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.Serial)
	dst = appendBytes(dst, m.Code)
	dst = appendU32(dst, m.ShareIndex)
	dst = appendBytes(dst, m.ShareValue)
	dst = appendBytes(dst, m.ShareSig)
	dst = appendBytes(dst, m.SharePath)
	return appendUCert(dst, &m.Cert)
}

func decodeVoteP(r *reader) *VoteP {
	return &VoteP{
		Serial:     r.u64("serial"),
		Code:       r.bytes("code"),
		ShareIndex: r.u32("share index"),
		ShareValue: r.bytes("share value"),
		ShareSig:   r.bytes("share sig"),
		SharePath:  r.sharePath(),
		Cert:       decodeUCert(r),
	}
}

// sharePath reads a VOTE_P share path, refusing before it copies anything
// a length that is not whole hashes or exceeds maxSharePathHashes.
func (r *reader) sharePath() []byte {
	n := r.u32("share path")
	if r.err == nil && (n%sharePathHash != 0 || n > maxSharePathHashes*sharePathHash) {
		r.err = fmt.Errorf("%w: share path of %d bytes", ErrMalformed, n)
	}
	return r.take(n, "share path")
}

// --- vote set consensus messages ------------------------------------------

// AnnounceEntry reports one ballot's certified vote code.
type AnnounceEntry struct {
	Serial uint64
	Code   []byte
	Cert   UCert
}

// appendEntries and decodeEntries are the one encoding of an entry list
// (count, then entries) that ANNOUNCE, RECOVER-RESPONSE and RBC-ECHO share.
func appendEntries(dst []byte, entries []AnnounceEntry) []byte {
	dst = appendU32(dst, uint32(len(entries))) //nolint:gosec // protocol-bounded
	for i := range entries {
		e := &entries[i]
		dst = appendU64(dst, e.Serial)
		dst = appendBytes(dst, e.Code)
		dst = appendUCert(dst, &e.Cert)
	}
	return dst
}

func decodeEntries(r *reader) []AnnounceEntry {
	n := r.count("entries", minAnnounceEntry)
	if r.err != nil {
		return nil
	}
	entries := make([]AnnounceEntry, 0, n)
	for i := 0; i < n; i++ {
		entries = append(entries, AnnounceEntry{
			Serial: r.u64("entry serial"),
			Code:   r.bytes("entry code"),
			Cert:   decodeUCert(r),
		})
	}
	return entries
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

func (m *Announce) appendBody(dst []byte) []byte {
	dst = appendU16(dst, m.Sender)
	return appendEntries(dst, m.Entries)
}

func decodeAnnounce(r *reader) *Announce {
	return &Announce{Sender: r.u16("sender"), Entries: decodeEntries(r)}
}

// RecoverRequest asks peers for the certified codes of ballots that decided
// "voted" in consensus but whose code is locally unknown (§III-E step 5b).
type RecoverRequest struct {
	Serials []uint64
}

// Kind implements Message.
func (*RecoverRequest) Kind() Kind { return KindRecoverRequest }

func (m *RecoverRequest) appendBody(dst []byte) []byte {
	dst = appendU32(dst, uint32(len(m.Serials))) //nolint:gosec // protocol-bounded
	for _, s := range m.Serials {
		dst = appendU64(dst, s)
	}
	return dst
}

func decodeRecoverRequest(r *reader) *RecoverRequest {
	n := r.count("serials", 8)
	if r.err != nil {
		return &RecoverRequest{}
	}
	m := &RecoverRequest{Serials: make([]uint64, 0, n)}
	for i := 0; i < n; i++ {
		m.Serials = append(m.Serials, r.u64("serial"))
	}
	return m
}

// RecoverResponse answers a RecoverRequest with certified codes.
type RecoverResponse struct {
	Entries []AnnounceEntry
}

// Kind implements Message.
func (*RecoverResponse) Kind() Kind { return KindRecoverResponse }

func (m *RecoverResponse) appendBody(dst []byte) []byte {
	return appendEntries(dst, m.Entries)
}

func decodeRecoverResponse(r *reader) *RecoverResponse {
	return &RecoverResponse{Entries: decodeEntries(r)}
}

// VSCEntry is one ⟨serial, code⟩ tuple of a final agreed vote set.
type VSCEntry struct {
	Serial uint64
	Code   []byte
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

func (m *VSCFinal) appendBody(dst []byte) []byte {
	dst = appendU16(dst, m.Sender)
	dst = appendU32(dst, uint32(len(m.Entries))) //nolint:gosec // protocol-bounded
	for i := range m.Entries {
		dst = appendU64(dst, m.Entries[i].Serial)
		dst = appendBytes(dst, m.Entries[i].Code)
	}
	return appendBytes(dst, m.Sig)
}

func decodeVSCFinal(r *reader) *VSCFinal {
	m := &VSCFinal{Sender: r.u16("sender")}
	n := r.count("entries", minVSCEntry)
	if r.err != nil {
		return m
	}
	m.Entries = make([]VSCEntry, 0, n)
	for i := 0; i < n; i++ {
		m.Entries = append(m.Entries, VSCEntry{Serial: r.u64("entry serial"), Code: r.bytes("entry code")})
	}
	m.Sig = r.bytes("sig")
	return m
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

func (m *Consensus) appendBody(dst []byte) []byte {
	dst = appendU16(dst, m.Sender)
	dst = appendU32(dst, uint32(len(m.Groups))) //nolint:gosec // protocol-bounded
	for i := range m.Groups {
		g := &m.Groups[i]
		dst = append(dst, g.Step, byte(g.Value))
		dst = appendU16(dst, g.Round)
		dst = appendU32(dst, uint32(len(g.Instances))) //nolint:gosec // protocol-bounded
		for _, inst := range g.Instances {
			dst = appendU32(dst, inst)
		}
	}
	return dst
}

func decodeConsensus(r *reader) *Consensus {
	m := &Consensus{Sender: r.u16("sender")}
	n := r.count("groups", minConsensusGroup)
	if r.err != nil {
		return m
	}
	m.Groups = make([]ConsensusGroup, 0, n)
	for i := 0; i < n; i++ {
		g := ConsensusGroup{
			Step:  r.u8("step"),
			Value: r.u8("value"),
			Round: r.u16("round"),
		}
		cnt := r.count("instances", 4)
		if r.err != nil {
			return m
		}
		g.Instances = make([]uint32, 0, cnt)
		for j := 0; j < cnt; j++ {
			g.Instances = append(g.Instances, r.u32("instance"))
		}
		m.Groups = append(m.Groups, g)
	}
	return m
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
var noEntries = appendEntries(nil, nil)

// NewRBCEcho builds sender's ECHO of broadcaster's proposal, encoding the
// entries once. The message keeps the slice: callers hand it over.
func NewRBCEcho(sender, broadcaster uint16, entries []AnnounceEntry) *RBCEcho {
	return &RBCEcho{Sender: sender, Broadcaster: broadcaster,
		entries: entries, payload: appendEntries(nil, entries)}
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

func (m *RBCEcho) appendBody(dst []byte) []byte {
	dst = appendU16(dst, m.Sender)
	dst = appendU16(dst, m.Broadcaster)
	return append(dst, m.Payload()...)
}

func decodeRBCEcho(r *reader) *RBCEcho {
	m := &RBCEcho{Sender: r.u16("sender"), Broadcaster: r.u16("broadcaster")}
	body := r.buf
	m.entries = decodeEntries(r)
	if r.err == nil {
		// Like every decoded byte string, the payload is a copy: the message
		// never aliases the frame it came from.
		m.payload = append([]byte(nil), body[:len(body)-len(r.buf)]...)
	}
	return m
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

func (m *RBCReady) appendBody(dst []byte) []byte {
	dst = appendU16(dst, m.Sender)
	dst = appendU16(dst, m.Broadcaster)
	return appendBytes(dst, m.Hash)
}

func decodeRBCReady(r *reader) *RBCReady {
	return &RBCReady{
		Sender:      r.u16("sender"),
		Broadcaster: r.u16("broadcaster"),
		Hash:        r.bytes("hash"),
	}
}

package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"ddemos/internal/codec"
)

// encodeCert lays a certificate out on its own, as a VC journal record
// embeds it.
func encodeCert(u *UCert) []byte {
	c := codec.Encoder(nil)
	u.Walk(c)
	return c.Out()
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	frame := Encode(m)
	got, err := Decode(frame)
	if err != nil {
		t.Fatalf("decode %s: %v", m.Kind(), err)
	}
	if got.Kind() != m.Kind() {
		t.Fatalf("kind changed: %v -> %v", m.Kind(), got.Kind())
	}
	return got
}

func sampleUCert() UCert {
	return UCert{
		Serial: 42,
		Code:   bytes.Repeat([]byte{0xaa}, 20),
		Sigs: []SigEntry{
			{Signer: 0, Sig: bytes.Repeat([]byte{1}, 64)},
			{Signer: 2, Sig: bytes.Repeat([]byte{2}, 64)},
			{Signer: 3, Sig: bytes.Repeat([]byte{3}, 64)},
		},
	}
}

func TestEndorseRoundTrip(t *testing.T) {
	m := &Endorse{Serial: 7, Code: []byte{1, 2, 3}}
	got := roundTrip(t, m).(*Endorse)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("got %+v want %+v", got, m)
	}
}

func TestEndorsementRoundTrip(t *testing.T) {
	m := &Endorsement{Serial: 9, Code: []byte{5}, Signer: 3, Sig: bytes.Repeat([]byte{7}, 64)}
	got := roundTrip(t, m).(*Endorsement)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("got %+v want %+v", got, m)
	}
}

func TestVotePRoundTrip(t *testing.T) {
	m := &VoteP{
		Serial:     42,
		Code:       bytes.Repeat([]byte{0xaa}, 20),
		ShareIndex: 2,
		ShareValue: bytes.Repeat([]byte{0xbb}, 32),
		ShareSig:   bytes.Repeat([]byte{0xcc}, 64),
		SharePath:  bytes.Repeat([]byte{0xdd}, 3*32),
		Cert:       sampleUCert(),
	}
	got := roundTrip(t, m).(*VoteP)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("got %+v want %+v", got, m)
	}
	// A VOTE_P built without a path still encodes and decodes.
	m.SharePath = nil
	got = roundTrip(t, m).(*VoteP)
	if len(got.SharePath) != 0 || !bytes.Equal(Encode(got), Encode(m)) {
		t.Fatalf("path-less VOTE_P came back as %+v", got)
	}
}

// TestDecodeBoundsSharePath: a VOTE_P share path is whole 32-byte hashes, at
// most maxSharePathHashes of them, and a length outside that is refused
// before anything is copied or allocated for it.
func TestDecodeBoundsSharePath(t *testing.T) {
	head := Encode(&VoteP{Serial: 1, Code: []byte{1}, ShareIndex: 1,
		ShareValue: make([]byte, 32), ShareSig: make([]byte, 64)})
	head = head[:len(head)-4-len(encodeCert(&UCert{}))] // up to the path length
	cert := encodeCert(&UCert{Serial: 1, Code: []byte{1}})
	for _, tc := range []struct {
		name   string
		length uint32
		body   int // path bytes actually present
		ok     bool
	}{
		{"empty", 0, 0, true},
		{"one hash", 32, 32, true},
		{"the most hashes", maxSharePathHashes * 32, maxSharePathHashes * 32, true},
		{"one hash too many", (maxSharePathHashes + 1) * 32, (maxSharePathHashes + 1) * 32, false},
		{"not whole hashes", 33, 33, false},
		{"huge, nothing behind it", 1<<32 - 32, 0, false},
		{"truncated", 3 * 32, 2 * 32, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame := append(binary.BigEndian.AppendUint32(append([]byte(nil), head...), tc.length), make([]byte, tc.body)...)
			frame = append(frame, cert...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := Decode(frame)
			runtime.ReadMemStats(&after)
			if tc.ok {
				if err != nil {
					t.Fatalf("a %d-byte path: %v", tc.length, err)
				}
				if got := len(m.(*VoteP).SharePath); got != tc.body {
					t.Fatalf("decoded a %d-byte path, want %d", got, tc.body)
				}
				return
			}
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("a %d-byte path: err = %v, want ErrMalformed", tc.length, err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
				t.Fatalf("refusing a %d-byte path allocated %d bytes", tc.length, got)
			}
		})
	}
}

func TestAnnounceRoundTrip(t *testing.T) {
	m := &Announce{
		Sender: 1,
		Entries: []AnnounceEntry{
			{Serial: 1, Code: []byte{1}, Cert: sampleUCert()},
			{Serial: 2, Code: []byte{2}, Cert: sampleUCert()},
		},
	}
	got := roundTrip(t, m).(*Announce)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("got %+v want %+v", got, m)
	}
}

func TestAnnounceEmptyRoundTrip(t *testing.T) {
	m := &Announce{Sender: 3}
	got := roundTrip(t, m).(*Announce)
	if got.Sender != 3 || len(got.Entries) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestRecoverRequestRoundTrip(t *testing.T) {
	m := &RecoverRequest{Serials: []uint64{1, 99, 1 << 40}}
	got := roundTrip(t, m).(*RecoverRequest)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("got %+v want %+v", got, m)
	}
}

func TestRecoverResponseRoundTrip(t *testing.T) {
	m := &RecoverResponse{Entries: []AnnounceEntry{{Serial: 5, Code: []byte{9}, Cert: sampleUCert()}}}
	got := roundTrip(t, m).(*RecoverResponse)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("got %+v want %+v", got, m)
	}
}

func TestVSCFinalRoundTrip(t *testing.T) {
	m := &VSCFinal{
		Sender: 2,
		Entries: []VSCEntry{
			{Serial: 1, Code: []byte{1, 2, 3}},
			{Serial: 9, Code: bytes.Repeat([]byte{0xee}, 20)},
		},
		Sig: bytes.Repeat([]byte{5}, 64),
	}
	got := roundTrip(t, m).(*VSCFinal)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("got %+v want %+v", got, m)
	}
	// Empty set (a node that certified nothing still answers).
	empty := &VSCFinal{Sender: 0, Sig: bytes.Repeat([]byte{6}, 64)}
	got = roundTrip(t, empty).(*VSCFinal)
	if got.Sender != 0 || len(got.Entries) != 0 || !bytes.Equal(got.Sig, empty.Sig) {
		t.Fatalf("empty round trip: %+v", got)
	}
}

func TestConsensusRoundTrip(t *testing.T) {
	m := &Consensus{
		Sender: 2,
		Groups: []ConsensusGroup{
			{Step: StepBVal, Round: 1, Value: 0, Instances: []uint32{0, 5, 100000}},
			{Step: StepAux, Round: 3, Value: 1, Instances: []uint32{7}},
			{Step: StepDecide, Round: 2, Value: 1, Instances: []uint32{}},
		},
	}
	got := roundTrip(t, m).(*Consensus)
	if got.Sender != m.Sender || len(got.Groups) != 3 {
		t.Fatalf("got %+v", got)
	}
	for i := range m.Groups {
		if got.Groups[i].Step != m.Groups[i].Step ||
			got.Groups[i].Round != m.Groups[i].Round ||
			got.Groups[i].Value != m.Groups[i].Value ||
			len(got.Groups[i].Instances) != len(m.Groups[i].Instances) {
			t.Fatalf("group %d mismatch: %+v vs %+v", i, got.Groups[i], m.Groups[i])
		}
	}
}

// TestRBCEchoPayload pins what the ACS broadcast relies on: the payload of
// an ECHO is the frame's bytes after the sender and broadcaster fields, the
// same whether the message was built or decoded; a decoded message keeps its
// own copy of them; and an echo under another sender reuses them.
func TestRBCEchoPayload(t *testing.T) {
	built := NewRBCEcho(3, 3, []AnnounceEntry{
		{Serial: 1, Code: []byte{1}, Cert: sampleUCert()},
		{Serial: 2, Code: []byte{2}, Cert: sampleUCert()},
	})
	frame := Encode(built)
	if !bytes.Equal(built.Payload(), frame[5:]) {
		t.Fatal("payload is not the frame's tail")
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	decoded := got.(*RBCEcho)
	if !reflect.DeepEqual(decoded.Entries(), built.Entries()) {
		t.Fatalf("got %+v want %+v", decoded.Entries(), built.Entries())
	}
	want := append([]byte(nil), frame[5:]...)
	for i := range frame {
		frame[i] = 0xFF // the transport may do anything with its buffer
	}
	if !bytes.Equal(decoded.Payload(), want) {
		t.Fatal("decoded payload aliases the frame")
	}
	relay := decoded.WithSender(1)
	if relay.Sender != 1 || relay.Broadcaster != 3 || &relay.Payload()[0] != &decoded.Payload()[0] {
		t.Fatalf("relay = sender %d broadcaster %d, payload shared = %v",
			relay.Sender, relay.Broadcaster, &relay.Payload()[0] == &decoded.Payload()[0])
	}
	if !bytes.Equal(Encode(relay)[5:], want) {
		t.Fatal("relayed frame carries different payload bytes")
	}
	if empty := (&RBCEcho{}).Payload(); !bytes.Equal(empty, []byte{0, 0, 0, 0}) {
		t.Fatalf("empty payload = %x", empty)
	}
}

func TestDecodeRejectsEmpty(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty frame must fail")
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	if _, err := Decode([]byte{0xff, 1, 2}); err == nil {
		t.Fatal("unknown kind must fail")
	}
	if _, err := Decode([]byte{0}); err == nil {
		t.Fatal("kind 0 must fail")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	m := &VoteP{
		Serial:     42,
		Code:       bytes.Repeat([]byte{0xaa}, 20),
		ShareIndex: 2,
		ShareValue: bytes.Repeat([]byte{0xbb}, 32),
		ShareSig:   bytes.Repeat([]byte{0xcc}, 64),
		SharePath:  bytes.Repeat([]byte{0xdd}, 3*32),
		Cert:       sampleUCert(),
	}
	frame := Encode(m)
	for _, cut := range []int{1, 5, len(frame) / 2, len(frame) - 1} {
		if _, err := Decode(frame[:cut]); err == nil {
			t.Fatalf("truncation at %d must fail", cut)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	frame := Encode(&Endorse{Serial: 1, Code: []byte{1}})
	if _, err := Decode(append(frame, 0)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
}

// TestDecodeRejectsHugeCounts: every counted collection is decoded into a
// slice preallocated from its count, so a frame that ends right after the
// largest count the decoder admits (a few header bytes from one Byzantine
// peer) must be refused before anything is sized from it.
func TestDecodeRejectsHugeCounts(t *testing.T) {
	count := func(n uint32) []byte { return binary.BigEndian.AppendUint32(nil, n) }
	frame := func(kind Kind, parts ...[]byte) []byte {
		return append([]byte{byte(kind)}, bytes.Join(parts, nil)...)
	}
	sender := []byte{0, 0}
	emptyCert := make([]byte, 8+4) // serial, empty code; the sig count follows
	cases := []struct {
		name  string
		frame []byte
	}{
		{"VOTE_P cert sigs", frame(KindVoteP, make([]byte, 8+4+4+4+4+4), emptyCert, count(codec.MaxCount))},
		{"ANNOUNCE entries", frame(KindAnnounce, sender, count(codec.MaxCount))},
		{"ANNOUNCE entry cert sigs", frame(KindAnnounce, sender, count(1), emptyCert, emptyCert, count(codec.MaxCount))},
		{"RECOVER-REQUEST serials", frame(KindRecoverRequest, count(codec.MaxCount))},
		{"RECOVER-RESPONSE entries", frame(KindRecoverResponse, count(codec.MaxCount))},
		{"VSC-FINAL entries", frame(KindVSCFinal, sender, count(codec.MaxCount))},
		{"CONSENSUS groups", frame(KindConsensus, sender, count(codec.MaxCount))},
		{"CONSENSUS instances", frame(KindConsensus, sender, count(1), []byte{StepBVal, 1, 0, 1}, count(codec.MaxCount))},
		{"RBC-ECHO entries", frame(KindRBCEcho, sender, sender, count(codec.MaxCount))},
		{"BATCH frames", frame(KindBatch, []byte{BatchVersion}, count(MaxBatchFrames))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decode(tc.frame)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("decoding a %d-byte frame: err = %v, want ErrMalformed", len(tc.frame), err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
				t.Fatalf("decoding a %d-byte frame allocated %d bytes", len(tc.frame), got)
			}
		})
	}
}

func TestDecodeFuzzNoPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEndorseRoundTrip(t *testing.T) {
	f := func(serial uint64, code []byte) bool {
		if len(code) > 1024 {
			code = code[:1024]
		}
		m := &Endorse{Serial: serial, Code: code}
		got, err := Decode(Encode(m))
		if err != nil {
			return false
		}
		e := got.(*Endorse)
		return e.Serial == serial && bytes.Equal(e.Code, code)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{KindEndorse, KindEndorsement, KindVoteP, KindAnnounce,
		KindRecoverRequest, KindRecoverResponse, KindConsensus, KindVSCFinal, Kind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatalf("kind %d has empty string", k)
		}
	}
}

func BenchmarkEncodeVoteP(b *testing.B) {
	m := &VoteP{
		Serial:     42,
		Code:       bytes.Repeat([]byte{0xaa}, 20),
		ShareIndex: 2,
		ShareValue: bytes.Repeat([]byte{0xbb}, 32),
		ShareSig:   bytes.Repeat([]byte{0xcc}, 64),
		SharePath:  bytes.Repeat([]byte{0xdd}, 3*32),
		Cert:       sampleUCert(),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(m)
	}
}

func BenchmarkDecodeVoteP(b *testing.B) {
	frame := Encode(&VoteP{
		Serial:     42,
		Code:       bytes.Repeat([]byte{0xaa}, 20),
		ShareIndex: 2,
		ShareValue: bytes.Repeat([]byte{0xbb}, 32),
		ShareSig:   bytes.Repeat([]byte{0xcc}, 64),
		SharePath:  bytes.Repeat([]byte{0xdd}, 3*32),
		Cert:       sampleUCert(),
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

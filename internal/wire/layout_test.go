package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestLayoutsPinned pins the bytes of one frame per message kind, so a
// change to how a message is laid out fails here rather than between two
// nodes of different builds. It also decodes every checked-in FuzzDecode
// seed not named as malformed: the fuzz target returns early on a refused
// input, so it would not notice a layout change on its own.
func TestLayoutsPinned(t *testing.T) {
	cert := UCert{Serial: 7, Code: []byte("code-7"), Sigs: []SigEntry{
		{Signer: 0, Sig: bytes.Repeat([]byte{0xAA}, 64)},
		{Signer: 2, Sig: bytes.Repeat([]byte{0xBB}, 64)},
	}}
	entries := []AnnounceEntry{{Serial: 7, Code: []byte("code-7"), Cert: cert}}
	endorse := Encode(&Endorse{Serial: 1, Code: []byte("vote-code")})
	pinned := []struct {
		kind Kind
		msg  Message
		hash string // SHA-256 of the frame
	}{
		{KindEndorse, &Endorse{Serial: 1, Code: []byte("vote-code")}, "b9db27a9fa4dc6e560d70beed0f5762ae8903513854ff6ebcbb4777ca0bfdff7"},
		{KindEndorsement, &Endorsement{Serial: 1, Code: []byte("vote-code"), Signer: 3, Sig: bytes.Repeat([]byte{0xCC}, 64)}, "caccca7219c56406b1a94cc709151e01cf26bb9002724e0aed3d1dbf4d104d09"},
		{KindVoteP, &VoteP{Serial: 7, Code: []byte("code-7"), ShareIndex: 2, ShareValue: bytes.Repeat([]byte{0x11}, 32),
			ShareSig: bytes.Repeat([]byte{0x22}, 64), SharePath: bytes.Repeat([]byte{0x33}, 5*32), Cert: cert}, "4342e32543bef23c12e4a1d771843dd15454c016108a4797023cab0664f54aa0"},
		{KindAnnounce, &Announce{Sender: 1, Entries: entries}, "0207a16bc12eef070a6f02ab4b8d5607268cd07c23749f1444a93289a8062e6e"},
		{KindRecoverRequest, &RecoverRequest{Serials: []uint64{1, 2, 9}}, "3c4e9502eb331e892af21887be01e3a6fd8ea87590c258f3e17f4da831931c39"},
		{KindRecoverResponse, &RecoverResponse{Entries: entries}, "ec62d4a38ed4bd195ae2a89f3d231f8aee5c6240276201c818a19d18c219f5c2"},
		{KindConsensus, &Consensus{Sender: 2, Groups: []ConsensusGroup{
			{Step: StepBVal, Round: 1, Value: 1, Instances: []uint32{0, 5, 9}},
			{Step: StepDecide, Round: 3, Value: 0, Instances: []uint32{2}},
		}}, "98a32768a3c633bf0d06244bcc8920dc1ae420264ff94f5682212c3c9d4fd707"},
		{KindBatch, &Batch{Frames: [][]byte{endorse, Encode(&RecoverRequest{Serials: []uint64{4}})}}, "ed0ca58970a0c371c38f37e441adceddbabebceac0736a9bd1380c300d966a0a"},
		{KindVSCFinal, &VSCFinal{Sender: 3, Entries: []VSCEntry{{Serial: 1, Code: []byte("a")}, {Serial: 9, Code: []byte("bc")}},
			Sig: bytes.Repeat([]byte{0x44}, 64)}, "ea640616bf3169520bcb1eda4421dc0157fd97833f45658254d746f71190f489"},
		{KindRBCEcho, NewRBCEcho(1, 2, entries), "bc8b8550b6d64261a1be857d50b9cf753517914d6ee7faf0a815b1cc56671391"},
		{KindRBCReady, &RBCReady{Sender: 0, Broadcaster: 1, Hash: bytes.Repeat([]byte{0x5E}, 32)}, "8ec8b9aa03e9d80f88007eb32f53fea6dec7d380afb673b2a5f2b6dc9e25ab9d"},
	}
	for _, p := range pinned {
		frame := Encode(p.msg)
		if p.msg.Kind() != p.kind || Kind(frame[0]) != p.kind {
			t.Fatalf("%v: pinned as %v", p.msg.Kind(), p.kind)
		}
		if sum := sha256.Sum256(frame); hex.EncodeToString(sum[:]) != p.hash {
			t.Errorf("%v: frame %x\nhashes to %x, pinned %s", p.kind, frame, sum, p.hash)
		}
		m, err := Decode(frame)
		if err != nil || !bytes.Equal(Encode(m), frame) {
			t.Errorf("%v: pinned frame does not round-trip: %v", p.kind, err)
		}
	}

	malformed := map[string]bool{
		"seed-empty": true, "seed-unknown-kind": true, "seed-truncated": true, "seed-trailing-bytes": true,
		"seed-consensus-bare-kind": true, "seed-rbc-ready-truncated": true, "seed-consensus-trailing": true,
	}
	seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecode", "*"))
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no FuzzDecode seeds: %v", err)
	}
	for _, path := range seeds {
		frame := readSeed(t, path)
		m, err := Decode(frame)
		if bad := malformed[filepath.Base(path)]; bad != (err != nil) {
			t.Errorf("%s: decode error %v, named malformed = %v", filepath.Base(path), err, bad)
		} else if err == nil && !bytes.Equal(Encode(m), frame) {
			t.Errorf("%s: decodes, but re-encodes differently", filepath.Base(path))
		}
	}
}

// readSeed reads the one []byte value of a checked-in fuzz corpus file.
func readSeed(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s: not a one-value []byte corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

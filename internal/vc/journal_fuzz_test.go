package vc

import (
	"bytes"
	"math/big"
	"runtime"
	"testing"

	"ddemos/internal/codec"
	"ddemos/internal/codec/codectest"
	"ddemos/internal/crypto/shamir"
	"ddemos/internal/ea"
	"ddemos/internal/transport"
	"ddemos/internal/wire"
)

// recordNode builds a never-started node over a manifest of numBallots
// ballots: all that replay reads. Its endpoint is never used.
func recordNode(t testing.TB, numBallots int) *Node {
	t.Helper()
	n, err := New(Config{
		Init:     &ea.VCInit{Manifest: ea.Manifest{ElectionID: "vc-journal-fuzz", NumBallots: numBallots, NumVC: 4}},
		Endpoint: transport.NewMemnet(transport.LinkProfile{}).Endpoint(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestReplayRefusesMalformedRecords: replay refuses a record that is not
// one of today's layouts, or names a ballot the manifest does not have,
// before it allocates anything sized from the record's own claims.
func TestReplayRefusesMalformedRecords(t *testing.T) {
	endorsed := record{kind: recEndorsed, serial: 1, code: []byte("code")}.bytes()
	share := record{kind: recShare, serial: 1, share: shamir.Share{Index: 1, Value: big.NewInt(1)}}.bytes()
	rows := []struct {
		name    string
		ballots int
		rec     []byte
	}{
		{"unknown kind", 4, []byte{0x7f, 0, 0, 0, 0, 0, 0, 0, 1}},
		{"keyless vote set (kind 6)", 4, []byte{6, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}},
		{"serial 0", 4, record{kind: recEndorsed, code: []byte("code")}.bytes()},
		{"serial past the manifest", 4, record{kind: recEndorsed, serial: 5, code: []byte("code")}.bytes()},
		{"vote set under a ballot's key", 4, record{kind: recVSC, serial: 1, set: new([]VotedBallot)}.bytes()},
		{"vote set longer than the manifest", 1, record{kind: recVSC, set: &[]VotedBallot{{Serial: 1}, {Serial: 2}}}.bytes()},
		{"share value not 32 bytes", 4, append(share[:len(share)-36:len(share)-36], 0, 0, 0, 1, 7)},
		{"trailing byte", 4, append(endorsed[:len(endorsed):len(endorsed)], 0)},
		{"truncated", 4, endorsed[:len(endorsed)-1]},
		{"vote-set count past the bytes, 1<<20 ballots", 1 << 20, []byte{recVSC, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10, 0, 0}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			n := recordNode(t, row.ballots)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := n.applyJournalRecord(row.rec)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("record %x replayed", row.rec)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
				t.Fatalf("refusing a %d-byte record allocated %d bytes", len(row.rec), got)
			}
		})
	}
}

// FuzzVCJournalRecord feeds arbitrary bytes through the record walk and
// replay on a fresh node, under the decoder oracle (codectest.Check): replay
// never panics or allocates past the bound, it accepts only what the walk
// accepts, and an accepted record re-encodes to the same bytes.
func FuzzVCJournalRecord(f *testing.F) {
	code := []byte("vote-code-0123456789")
	cert := &wire.UCert{Serial: 2, Code: code, Sigs: []wire.SigEntry{{Signer: 0, Sig: bytes.Repeat([]byte{1}, 64)}}}
	for _, rec := range syntheticRecords(code) {
		f.Add(rec)
	}
	f.Add(record{kind: recUCert, serial: 2, cert: cert}.bytes())
	f.Add(record{kind: recVSC, set: &[]VotedBallot{{Serial: 1, Code: code}, {Serial: 3, Code: code}}}.bytes())
	f.Add(record{kind: recVSC, set: new([]VotedBallot)}.bytes())
	f.Add([]byte{6, 0, 0, 0, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		n := recordNode(t, 4)
		_ = codectest.Check(t, b, func(b []byte) (func() []byte, error) {
			var r record
			c := codec.Decoder(b)
			r.walk(c)
			err := n.applyJournalRecord(b)
			if err == nil && !c.Done() {
				t.Fatalf("replay accepted %x, which the record walk refuses", b)
			}
			return r.bytes, err
		})
	})
}

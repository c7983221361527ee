package vc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	"testing"

	"ddemos/internal/journal"
	"ddemos/internal/wire"
)

// TestLayoutsPinned pins the bytes of one journal record per kind, each made
// by the path that writes it on a live node: the ucert record by adopting a
// certified code during consensus, the rest by the state capture that
// snapshots are taken from. A journal written by one build must replay under
// the next, so a change to a record's layout fails here. Every pinned record
// must also replay on a fresh node to the same state.
func TestLayoutsPinned(t *testing.T) {
	data, nodes := memoHosts(t, 2)
	n := nodes[0]
	mem := journal.NewMemJournal(journal.Options{})
	if err := n.RecoverBackend(mem, journal.PolicyAvailable); err != nil {
		t.Fatal(err)
	}
	if ok := n.acceptEntries([]wire.AnnounceEntry{signedEntry(data, 2, optionCode(t, data, 2, 1), 0, 1, 2)}); !ok[0] {
		t.Fatal("a certified code was not adopted")
	}
	adopted := backendRecords(t, mem)
	if len(adopted) != 1 {
		t.Fatalf("adopting one certificate journaled %d records", len(adopted))
	}

	code := optionCode(t, data, 1, 0)
	st := n.state(1)
	st.mu.Lock()
	st.endorsedCode, st.usedCode = code, code
	st.part, st.row = 1, 1
	st.cert = &wire.UCert{Serial: 1, Code: code, Sigs: []wire.SigEntry{{Signer: 3, Sig: []byte("sig")}}}
	st.shares = map[uint32]*big.Int{1: big.NewInt(11), 4: big.NewInt(44)}
	st.status, st.receipt = Voted, []byte("receipt")
	st.mu.Unlock()
	n.vscMu.Lock()
	n.vscDone, n.vscResult = true, []VotedBallot{{Serial: 1, Code: code}}
	n.vscMu.Unlock()
	state := n.laneState(0, 1)
	if len(state) != 7 {
		t.Fatalf("state capture made %d records, want 7", len(state))
	}

	pinned := []struct {
		name string
		rec  []byte
		hash string // SHA-256 of the record
	}{
		{"endorsed", state[0], "eb85e781c85b5c72ae3ce1b7390ec81586a23f71c482520afcc5247beea8f140"},
		{"ucert", adopted[0], "a78b6c9cde7fa688024fb2178c75d4414ac81893ccaea4bdc7c6dda0f05ae7fb"},
		{"pending", state[1], "9c80362cfdfbad9a32fd32bb9b5894ce6a92242d78ddde038b69bce543a8796b"},
		{"share", state[2], "45bf5147c342ab0b6b9fb90b791d50c428b77a70208453cd594f3724452f091a"},
		{"voted", state[4], "a3695993cb334b17f398e997d9348be199c5d830a5763352c55ce97a7b57e274"},
		{"vsc", state[6], "5fd502eaae20fd2f5fd1023a087127e26b1e870681036bef2d9acee9d6e537ab"},
	}
	for _, p := range pinned {
		if sum := sha256.Sum256(p.rec); hex.EncodeToString(sum[:]) != p.hash {
			t.Errorf("%s: record %x\nhashes to %x, pinned %s", p.name, p.rec, sum, p.hash)
		}
	}

	fresh := nodes[1]
	for _, rec := range append(state, adopted[0]) {
		if err := fresh.applyJournalRecord(rec); err != nil {
			t.Fatalf("record %x: %v", rec, err)
		}
	}
	if again := fresh.laneState(0, 1); len(again) != len(state) || !bytes.Equal(bytes.Join(again, nil), bytes.Join(state, nil)) {
		t.Fatal("the pinned records replay to a different state")
	}
}

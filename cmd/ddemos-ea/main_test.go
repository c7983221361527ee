package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ddemos/internal/ea"
	"ddemos/internal/httpapi"
	"ddemos/internal/store"
)

// TestNewElectionIDUnique pins the same-second collision fix: the old ID
// was election-<start.Unix()>, so two setups started in the same second
// (parallel CI runs, scripted re-runs) collided on ID — and on everything
// keyed by it. The ID now mixes in crypto/rand, so same-instant setups
// must still be unique, while keeping the greppable time prefix.
func TestNewElectionIDUnique(t *testing.T) {
	start := time.Unix(1750000000, 0)
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		id, err := newElectionID(start)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(id, "election-1750000000-") {
			t.Fatalf("ID %q lost the greppable time prefix", id)
		}
		if seen[id] {
			t.Fatalf("duplicate election ID %q for the same start second", id)
		}
		seen[id] = true
	}
}

func hashU64(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

func hashBytes(h hash.Hash, b []byte) {
	hashU64(h, uint64(len(b)))
	h.Write(b)
}

// pinnedStreamingDigest is the canonical hash of everything the streaming
// route emits for the fixed "route-differential" seed below that does not
// depend on how the EA signs receipt shares: the voter ballots, every VC
// line's hash commitment, salt and receipt share, and the raw bb.gob and
// trustee-<i>.gob files. It freezes the whole-pool bytes of that fixture: a
// change in ballot generation, the shuffle, share derivation, the prover or
// the trustee sharing shows up as a digest mismatch here.
const pinnedStreamingDigest = "c31d23d6457445e11232714e4d5c9027200c0c5a37d0d7efbecbaf5e4afaabca"

// pinnedShareSigDigest is the hash of the EA's receipt-share signatures and
// of every node's path to the signed ballot root in the same fixture, pinned
// apart so that a change to the signature scheme moves this digest alone.
const pinnedShareSigDigest = "27b822d26989f0a4f58d0eee6a319c6170190a53eb1ecb1cd7cb146d715b0eae"

// TestStreamingRoutePinnedElection is the regression successor of the
// streaming-vs-legacy differential test: the legacy route is gone, so the
// seeded election it cross-checked is pinned by digest instead. It also
// keeps the structural handoff contract: slim vc-<i>.gob payloads (no
// inline pool), a BallotsDir that resolves the way ddemos-vc resolves it,
// and segment directories that open and serve every ballot.
func TestStreamingRoutePinnedElection(t *testing.T) {
	const nBallots, nVC, nTrustees = 40, 4, 3
	out := filepath.Join(t.TempDir(), "streaming")
	cfg := eaConfig{
		out: out, ballots: nBallots, options: "yes,no", nv: nVC, nb: 3, nt: nTrustees,
		startS: "2026-06-10T08:00:00Z", endS: "2026-06-10T20:00:00Z",
		segmentBallots: 16, // several segments from the 40-ballot pool
		electionID:     "route-differential", seed: []byte("route-differential"),
	}
	if err := run(cfg, io.Discard); err != nil {
		t.Fatalf("streaming route: %v", err)
	}

	h, hs := sha256.New(), sha256.New()

	// Voter ballots, in pool order.
	ballots, err := httpapi.ReadBallotsFile(filepath.Join(out, "ballots.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ballots) != nBallots {
		t.Fatalf("pool size %d, want %d", len(ballots), nBallots)
	}
	for _, b := range ballots {
		hashU64(h, b.Serial)
		for p := 0; p < 2; p++ {
			hashU64(h, uint64(len(b.Parts[p].Lines)))
			for _, l := range b.Parts[p].Lines {
				hashBytes(h, l.VoteCode)
				hashBytes(h, []byte(l.Option))
				hashBytes(h, l.Receipt)
			}
		}
	}

	// Per-VC payloads: slim init plus every stored ballot line, opened the
	// way ddemos-vc opens them.
	for i := 0; i < nVC; i++ {
		initPath := filepath.Join(out, fmt.Sprintf("vc-%d.gob", i))
		var init ea.VCInit
		if err := httpapi.ReadGobFile(initPath, &init); err != nil {
			t.Fatal(err)
		}
		if len(init.Ballots) != 0 {
			t.Fatalf("vc-%d: payload carries %d inline ballots, want none", i, len(init.Ballots))
		}
		if init.BallotsDir == "" {
			t.Fatalf("vc-%d: payload has no BallotsDir", i)
		}
		segPath := init.BallotsDir
		if !filepath.IsAbs(segPath) {
			segPath = filepath.Join(filepath.Dir(initPath), segPath)
		}
		seg, err := store.OpenSegmented(segPath)
		if err != nil {
			t.Fatalf("vc-%d: opening emitted segment dir: %v", i, err)
		}
		if seg.Count() != nBallots {
			t.Fatalf("vc-%d: segment dir holds %d ballots, want %d", i, seg.Count(), nBallots)
		}
		for serial := uint64(1); serial <= nBallots; serial++ {
			bd, err := seg.Get(serial)
			if err != nil {
				t.Fatalf("vc-%d Get(%d): %v", i, serial, err)
			}
			hashU64(h, bd.Serial)
			hashU64(hs, bd.Serial)
			for p := 0; p < 2; p++ {
				hashU64(h, uint64(len(bd.Lines[p])))
				for _, l := range bd.Lines[p] {
					h.Write(l.Hash[:])
					h.Write(l.Salt[:])
					h.Write(l.Share[:])
				}
			}
			hs.Write(bd.ShareSig[:])
			hashBytes(hs, bd.NodePath)
		}
		_ = seg.Close()
	}

	// The full-crypto payloads, byte for byte: bb.gob carries the encrypted
	// vote codes, the option-encoding commitments and every bit and sum
	// proof first move; trustee-<i>.gob carries each trustee's shares of the
	// openings and of the proofs' final-move coefficients. A change to the
	// prover's arithmetic or its randomness order shows up here.
	files := []string{"bb.gob"}
	for i := 0; i < nTrustees; i++ {
		files = append(files, fmt.Sprintf("trustee-%d.gob", i))
	}
	for _, name := range files {
		b, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		hashBytes(h, []byte(name))
		hashBytes(h, b)
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedStreamingDigest {
		t.Errorf("streaming route digest changed:\n got %s\nwant %s\n"+
			"(ballot generation or the segment writer changed the emitted bytes; "+
			"re-pin only if the change is intentional)", got, pinnedStreamingDigest)
	}
	if got := hex.EncodeToString(hs.Sum(nil)); got != pinnedShareSigDigest {
		t.Errorf("receipt-share signature digest changed:\n got %s\nwant %s\n"+
			"(the EA signs receipt shares differently; re-pin only if the change is intentional)",
			got, pinnedShareSigDigest)
	}
}

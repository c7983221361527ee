package vc

import (
	"bytes"
	"testing"

	"ddemos/internal/ballot"
	"ddemos/internal/ea"
	"ddemos/internal/wire"
)

// TestVotePRejectsByzantineShares: a share is checked by folding it up its
// audit path at the (part, row) the receiver located from the vote code and
// at the sender's node index, and by verifying the EA's signature on the
// ballot root that comes out. Every way a Byzantine sender can recombine
// valid pieces is counted in BadShares and never counts towards a receipt:
// node 0 holds its own share and node 1's honest one, one short of
// Nv-fv = 3, and only node 2's honest share completes the ballot, with the
// right receipt. Node 2's share folds to the root node 0 already holds, so
// it costs no signature check. A forgery sent first arrives alone, before
// any honest share: it must not poison that memo. One sent late arrives
// after node 1's share, when the root is held: it is refused by comparison,
// with no signature check either.
func TestVotePRejectsByzantineShares(t *testing.T) {
	data, nodes := memoHosts(t, memoBallots)
	// fromOtherBallot is node 3's honest VOTE_P for another ballot.
	fromOtherBallot := func(t *testing.T, serial uint64) *wire.VoteP {
		other := serial%memoBallots + 1
		code := optionCode(t, data, other, 0)
		return votePFrom(t, nodes[3], other, code, signedEntry(data, other, code, 0, 1, 2).Cert).msg.(*wire.VoteP)
	}
	nodePathLen := func(t *testing.T, serial uint64) int {
		bd, err := nodes[3].st.Get(serial)
		if err != nil {
			t.Fatal(err)
		}
		return len(bd.NodePath)
	}
	const (
		together = iota // in one batch with node 1's honest share
		first           // alone, before any honest share
		late            // alone, after node 1's share
	)
	cases := []struct {
		name  string
		when  int
		forge func(t *testing.T, serial uint64, code []byte, m *wire.VoteP)
	}{
		{"valid share, wrong path", together, func(_ *testing.T, _ uint64, _ []byte, m *wire.VoteP) {
			m.SharePath[len(m.SharePath)-1] ^= 0x01
		}},
		{"another row's share with its own valid path", together, func(t *testing.T, serial uint64, code []byte, m *wire.VoteP) {
			bd, part, row, err := nodes[3].locate(serial, code)
			if err != nil {
				t.Fatal(err)
			}
			other := 1 - row
			m.ShareValue = bytes.Clone(bd.Lines[part][other].Share[:])
			m.SharePath = ea.SharePath(bd, part, other)
		}},
		{"another node's share, path and signature", together, func(t *testing.T, serial uint64, code []byte, m *wire.VoteP) {
			peer := votePFrom(t, nodes[1], serial, code, m.Cert).msg.(*wire.VoteP)
			m.ShareValue, m.SharePath, m.ShareSig = peer.ShareValue, peer.SharePath, peer.ShareSig
		}},
		{"another ballot's root signature", together, func(t *testing.T, serial uint64, _ []byte, m *wire.VoteP) {
			bd, err := nodes[3].st.Get(serial%memoBallots + 1)
			if err != nil {
				t.Fatal(err)
			}
			m.ShareSig = bytes.Clone(bd.ShareSig[:])
		}},
		{"empty path", together, func(_ *testing.T, _ uint64, _ []byte, m *wire.VoteP) {
			m.SharePath = nil
		}},
		{"truncated path", together, func(_ *testing.T, _ uint64, _ []byte, m *wire.VoteP) {
			m.SharePath = m.SharePath[:len(m.SharePath)-ea.ShareHashSize]
		}},
		{"over-long path", together, func(_ *testing.T, _ uint64, _ []byte, m *wire.VoteP) {
			m.SharePath = append(bytes.Clone(m.SharePath), make([]byte, ea.ShareHashSize)...)
		}},
		{"another ballot's share, path and valid root signature", together, func(t *testing.T, serial uint64, _ []byte, m *wire.VoteP) {
			o := fromOtherBallot(t, serial)
			m.ShareValue, m.SharePath, m.ShareSig = o.ShareValue, o.SharePath, o.ShareSig
		}},
		{"node-root path taken from another ballot", together, func(t *testing.T, serial uint64, _ []byte, m *wire.VoteP) {
			o := fromOtherBallot(t, serial)
			n := nodePathLen(t, serial)
			m.SharePath = append(bytes.Clone(m.SharePath[:len(m.SharePath)-n]), o.SharePath[len(o.SharePath)-n:]...)
		}},
		{"ballot-level path of the wrong length", together, func(t *testing.T, serial uint64, _ []byte, m *wire.VoteP) {
			m.SharePath = m.SharePath[:len(m.SharePath)-nodePathLen(t, serial)] // the node root's path only
		}},
		{"a bad first VOTE_P does not poison the memo", first, func(_ *testing.T, _ uint64, _ []byte, m *wire.VoteP) {
			m.ShareSig = bytes.Clone(m.ShareSig)
			m.ShareSig[0] ^= 0x01
		}},
		{"another row's share after the root is held", late, func(t *testing.T, serial uint64, code []byte, m *wire.VoteP) {
			bd, part, row, err := nodes[3].locate(serial, code)
			if err != nil {
				t.Fatal(err)
			}
			m.ShareValue = bytes.Clone(bd.Lines[part][1-row].Share[:])
		}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := uint64(i + 1)
			code := optionCode(t, data, serial, 0)
			cert := signedEntry(data, serial, code, 0, 1, 2).Cert
			forged := votePFrom(t, nodes[3], serial, code, cert)
			tc.forge(t, serial, code, forged.msg.(*wire.VoteP))

			before := nodes[0].Metrics()
			honest := votePFrom(t, nodes[1], serial, code, cert)
			switch tc.when {
			case together:
				nodes[0].onVotePBatch([]job{honest, forged})
			case first:
				nodes[0].onVotePBatch([]job{forged})
				if status, _ := nodes[0].BallotStatus(serial); status != NotVoted {
					t.Fatalf("status %v after a lone forged share, want NotVoted", status)
				}
				nodes[0].onVotePBatch([]job{honest})
			case late:
				nodes[0].onVotePBatch([]job{honest})
				held := nodes[0].Metrics()
				nodes[0].onVotePBatch([]job{forged})
				if got := nodes[0].Metrics().RootSigVerifies - held.RootSigVerifies; got != 0 {
					t.Fatalf("the late forgery cost %d root signature checks, want 0", got)
				}
			}
			if got := nodes[0].Metrics().BadShares - before.BadShares; got != 1 {
				t.Fatalf("BadShares rose by %d, want 1", got)
			}
			if status, _ := nodes[0].BallotStatus(serial); status != Pending {
				t.Fatalf("status %v after the forged share, want Pending: it must not count towards the receipt", status)
			}

			held := nodes[0].Metrics()
			nodes[0].onVotePBatch([]job{votePFrom(t, nodes[2], serial, code, cert)})
			after := nodes[0].Metrics()
			if after.RootSigVerifies != held.RootSigVerifies || after.RootSigMemoHits != held.RootSigMemoHits+1 {
				t.Fatalf("the third share cost %d root signature checks and %d memo hits, want 0 and 1",
					after.RootSigVerifies-held.RootSigVerifies, after.RootSigMemoHits-held.RootSigMemoHits)
			}
			st := nodes[0].state(serial)
			st.mu.Lock()
			status, receipt := st.status, st.receipt
			st.mu.Unlock()
			want := data.Ballots[serial-1].Parts[ballot.PartA].Lines[0].Receipt
			if status != Voted || !bytes.Equal(receipt, want) {
				t.Fatalf("after the honest third share: status %v, receipt %x, want Voted with %x", status, receipt, want)
			}
		})
	}
}

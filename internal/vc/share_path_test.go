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
// verifying the EA's signature on the root that comes out. Every way a
// Byzantine sender can recombine valid pieces is counted in BadShares and
// never counts towards a receipt: node 0 holds its own share and node 1's
// honest one, one short of Nv-fv = 3, and only node 2's honest share
// completes the ballot, with the right receipt.
func TestVotePRejectsByzantineShares(t *testing.T) {
	cases := []struct {
		name  string
		forge func(t *testing.T, nodes []*Node, serial uint64, code []byte, m *wire.VoteP)
	}{
		{"valid share, wrong path", func(_ *testing.T, _ []*Node, _ uint64, _ []byte, m *wire.VoteP) {
			m.SharePath[len(m.SharePath)-1] ^= 0x01
		}},
		{"another row's share with its own valid path", func(t *testing.T, nodes []*Node, serial uint64, code []byte, m *wire.VoteP) {
			bd, part, row, err := nodes[3].locate(serial, code)
			if err != nil {
				t.Fatal(err)
			}
			other := 1 - row
			m.ShareValue = bytes.Clone(bd.Lines[part][other].Share[:])
			m.SharePath = ea.SharePath(bd, part, other)
		}},
		{"another node's share, path and signature", func(t *testing.T, nodes []*Node, serial uint64, code []byte, m *wire.VoteP) {
			peer := votePFrom(t, nodes[1], serial, code, m.Cert).msg.(*wire.VoteP)
			m.ShareValue, m.SharePath, m.ShareSig = peer.ShareValue, peer.SharePath, peer.ShareSig
		}},
		{"another ballot's root signature", func(t *testing.T, nodes []*Node, serial uint64, _ []byte, m *wire.VoteP) {
			bd, err := nodes[3].st.Get(serial%memoBallots + 1)
			if err != nil {
				t.Fatal(err)
			}
			m.ShareSig = bytes.Clone(bd.ShareSig[:])
		}},
		{"empty path", func(_ *testing.T, _ []*Node, _ uint64, _ []byte, m *wire.VoteP) {
			m.SharePath = nil
		}},
		{"truncated path", func(_ *testing.T, _ []*Node, _ uint64, _ []byte, m *wire.VoteP) {
			m.SharePath = m.SharePath[:len(m.SharePath)-ea.ShareHashSize]
		}},
		{"over-long path", func(_ *testing.T, _ []*Node, _ uint64, _ []byte, m *wire.VoteP) {
			m.SharePath = append(bytes.Clone(m.SharePath), make([]byte, ea.ShareHashSize)...)
		}},
	}
	data, nodes := memoHosts(t, memoBallots)
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := uint64(i + 1)
			code := optionCode(t, data, serial, 0)
			cert := signedEntry(data, serial, code, 0, 1, 2).Cert
			forged := votePFrom(t, nodes[3], serial, code, cert)
			tc.forge(t, nodes, serial, code, forged.msg.(*wire.VoteP))

			bad := nodes[0].Metrics().BadShares
			nodes[0].onVotePBatch([]job{votePFrom(t, nodes[1], serial, code, cert), forged})
			if got := nodes[0].Metrics().BadShares - bad; got != 1 {
				t.Fatalf("BadShares rose by %d, want 1", got)
			}
			if status, _ := nodes[0].BallotStatus(serial); status != Pending {
				t.Fatalf("status %v after the forged share, want Pending: it must not count towards the receipt", status)
			}

			nodes[0].onVotePBatch([]job{votePFrom(t, nodes[2], serial, code, cert)})
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

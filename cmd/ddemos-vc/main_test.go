package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ddemos/internal/bb"
	"ddemos/internal/clock"
	"ddemos/internal/ea"
	"ddemos/internal/journal"
	"ddemos/internal/store"
	"ddemos/internal/transport"
	"ddemos/internal/vc"
	"ddemos/internal/wire"
)

func testElection(t *testing.T) *ea.ElectionData {
	t.Helper()
	start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	data, err := ea.Setup(ea.Params{
		ElectionID: "vc-endpoint-test", Options: []string{"yes", "no"},
		NumBallots: 2, NumVC: 4, NumBB: 1, NumTrustees: 1,
		VotingStart: start, VotingEnd: start.Add(time.Hour),
		VCOnly: true, Seed: []byte("vc-endpoint-test"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// rawFrame is one TCP frame as TCPNode writes it: length, claimed sender,
// payload.
func rawFrame(from uint16, payload []byte) []byte {
	f := make([]byte, 6, 6+len(payload))
	binary.BigEndian.PutUint32(f, uint32(2+len(payload))) //nolint:gosec // small
	binary.BigEndian.PutUint16(f[4:], from)
	return append(f, payload...)
}

// openNodes opens every VC node of data as ddemos-vc does — a TCP node on
// a loopback port under vc.Open — on a clock inside the voting window, and
// returns them with their TCP addresses.
func openNodes(t *testing.T, data *ea.ElectionData) ([]*vc.Node, []string) {
	t.Helper()
	addrs := make([]string, len(data.VC))
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		_ = ln.Close()
	}
	clk := clock.NewFake(data.Manifest.VotingStart.Add(time.Minute))
	nodes := make([]*vc.Node, len(data.VC))
	for i, init := range data.VC {
		peers := map[transport.NodeID]string{}
		for j, addr := range addrs {
			if j != i {
				peers[transport.NodeID(j)] = addr //nolint:gosec // small
			}
		}
		tcp, err := transport.NewTCPNode(transport.NodeID(i), addrs[i], peers) //nolint:gosec // small
		if err != nil {
			t.Fatal(err)
		}
		nodes[i], err = vc.Open(vc.Config{Init: init, Endpoint: tcp, Clock: clk}, "", journal.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nodes[i].Stop)
	}
	return nodes, addrs
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestEndpointDropsUnauthenticatedFrames opens the four nodes as ddemos-vc
// does. A raw TCP client that claims to be node 0 gets nothing through to
// node 1, with no tag or with a bad one, and each such frame is counted as a
// link drop. A peer that tags its frames under node 0's link key but does
// not batch — a node that predates batching, met in a rolling restart — gets
// a plain frame and a wire.Batch through: node 1's protocol layer sees their
// junk payloads and counts them as bad messages. The four nodes' own links
// then carry a vote through node 1 to its receipt.
func TestEndpointDropsUnauthenticatedFrames(t *testing.T) {
	data := testElection(t)
	nodes, addrs := openNodes(t, data)
	node1 := nodes[1]

	msg := wire.Encode(&wire.Endorse{Serial: 1, Code: []byte("claimed-by-node-0")})
	conn, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	for _, payload := range [][]byte{
		msg, // no tag
		append(bytes.Repeat([]byte{0xA5}, transport.TagSize), msg...), // a bad tag
	} {
		if _, err := conn.Write(rawFrame(0, payload)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "two link drops", func() bool { return node1.Metrics().LinkDrops == 2 })
	if bad := node1.Metrics().BadMessages; bad != 0 {
		t.Fatalf("%d dropped frames reached the protocol layer", bad)
	}

	tcp0, err := transport.NewTCPNode(0, "127.0.0.1:0", map[transport.NodeID]string{1: addrs[1]})
	if err != nil {
		t.Fatal(err)
	}
	unbatched0, err := transport.NewAuthenticated(tcp0, data.VC[0].LinkKeys)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = unbatched0.Close() }()
	junk := []byte("not a protocol message")
	var want int64
	for _, tc := range []struct {
		name  string
		frame []byte
		msgs  int64
	}{
		{"tagged frame", junk, 1},
		{"tagged batch", wire.EncodeBatch([][]byte{junk, junk}), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := unbatched0.Send(1, tc.frame); err != nil {
				t.Fatal(err)
			}
			want += tc.msgs
			waitFor(t, "the frame at node 1's protocol layer", func() bool { return node1.Metrics().BadMessages == want })
		})
	}

	ballot := data.Ballots[0]
	line := ballot.Parts[0].Lines[0]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	receipt, err := node1.SubmitVote(ctx, ballot.Serial, line.VoteCode)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(receipt, line.Receipt) {
		t.Fatalf("receipt %x, want %x", receipt, line.Receipt)
	}
	if got := node1.Metrics().LinkDrops; got != 2 {
		t.Fatalf("dropped %d frames after the honest ones, want 2", got)
	}
}

// TestEndpointRefusesPayloadWithoutLinkKeys: a vc-<i>.bin written without
// link keys (by an EA from before they were dealt) does not start a node.
func TestEndpointRefusesPayloadWithoutLinkKeys(t *testing.T) {
	init := *testElection(t).VC[2]
	init.LinkKeys = nil
	path := filepath.Join(t.TempDir(), "vc-2.bin")
	if err := bb.VCFile.Write(path, &init); err != nil {
		t.Fatal(err)
	}
	read, err := bb.VCFile.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := transport.NewTCPNode(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	node, err := vc.Open(vc.Config{Init: &read, Endpoint: tcp}, "", journal.Options{}, nil)
	if err == nil {
		node.Stop()
		t.Fatal("a payload without link keys opened a node")
	}
	if !strings.Contains(err.Error(), "link keys") || !strings.Contains(err.Error(), "ddemos-ea") {
		t.Fatalf("error %q does not name the missing link keys and ddemos-ea", err)
	}
}

// TestEndpointRefusesPayloadWithoutBallotsDir: a vc-<i>.bin that names no
// ballot segment directory does not start a node, even with the pool
// inline, and the error names ddemos-ea.
func TestEndpointRefusesPayloadWithoutBallotsDir(t *testing.T) {
	init := testElection(t).VC[2]
	if len(init.Ballots) == 0 || init.BallotsDir != "" {
		t.Fatal("want an in-process payload: an inline pool and no BallotsDir")
	}
	st, err := openBallotStore(init, filepath.Join(t.TempDir(), "vc-2.bin"), 64<<20)
	if err == nil {
		_ = st.Close()
		t.Fatal("a payload without BallotsDir opened a ballot store")
	}
	if !strings.Contains(err.Error(), "ddemos-ea") {
		t.Fatalf("error %q does not name ddemos-ea", err)
	}
}

// TestBallotStoreRefusesNonPositiveCache: -store-cache 0 (or less) is
// refused; a positive budget opens the segment directory BallotsDir names,
// relative to the payload file.
func TestBallotStoreRefusesNonPositiveCache(t *testing.T) {
	init := *testElection(t).VC[2]
	dir := t.TempDir()
	seg, err := store.CreateSegmented(filepath.Join(dir, "vc-2"), init.Ballots, store.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = seg.Close()
	init.Ballots, init.BallotsDir = nil, "vc-2"
	initPath := filepath.Join(dir, "vc-2.bin")
	for _, budget := range []int64{0, -1} {
		st, err := openBallotStore(&init, initPath, budget)
		if err == nil {
			_ = st.Close()
			t.Fatalf("-store-cache %d opened a ballot store", budget)
		}
		if !strings.Contains(err.Error(), "-store-cache") {
			t.Fatalf("error %q does not name -store-cache", err)
		}
	}
	st, err := openBallotStore(&init, initPath, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	if st.Count() != 2 {
		t.Fatalf("store holds %d ballots, want 2", st.Count())
	}
}

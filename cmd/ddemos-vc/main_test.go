package main

import (
	"bytes"
	"encoding/binary"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ddemos/internal/ea"
	"ddemos/internal/httpapi"
	"ddemos/internal/store"
	"ddemos/internal/transport"
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

// recvFrom0 waits for the next message on ep and checks it is want, from
// node 0.
func recvFrom0(t *testing.T, ep transport.Endpoint, want []byte) {
	t.Helper()
	select {
	case env := <-ep.Recv():
		if env.From != 0 || !bytes.Equal(env.Payload, want) {
			t.Fatalf("got %+v, want node 0's frame %x", env, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("node 0's authenticated frame never arrived")
	}
}

// TestEndpointDropsUnauthenticatedFrames opens the endpoint ddemos-vc builds
// for node 1. A raw TCP client that claims to be node 0 gets nothing through,
// with no tag or with a bad one, and each such frame is counted. A peer that
// tags its frames under node 0's link key but does not batch — a node that
// predates batching, met in a rolling restart — gets a plain frame and a
// wire.Batch through. Node 0's own endpoint, built the same way as node 1's,
// gets its frames through.
func TestEndpointDropsUnauthenticatedFrames(t *testing.T) {
	data := testElection(t)
	node1, err := openEndpoint(data.VC[1], "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node1.Close() }()

	msg := wire.Encode(&wire.Endorse{Serial: 1, Code: []byte("claimed-by-node-0")})
	conn, err := net.Dial("tcp", node1.tcp.Addr())
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
	deadline := time.Now().Add(5 * time.Second)
	for node1.auth.Dropped() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := node1.auth.Dropped(); got != 2 {
		t.Fatalf("dropped %d frames, want 2", got)
	}

	peers := map[transport.NodeID]string{1: node1.tcp.Addr()}
	tcp0, err := transport.NewTCPNode(0, "127.0.0.1:0", peers)
	if err != nil {
		t.Fatal(err)
	}
	unbatched0, err := transport.NewAuthenticated(tcp0, data.VC[0].LinkKeys)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = unbatched0.Close() }()
	other := wire.Encode(&wire.Endorse{Serial: 2, Code: []byte("also-from-node-0")})
	for _, tc := range []struct {
		name  string
		frame []byte
		want  [][]byte
	}{
		{"tagged frame", msg, [][]byte{msg}},
		{"tagged batch", wire.EncodeBatch([][]byte{msg, other}), [][]byte{msg, other}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := unbatched0.Send(1, tc.frame); err != nil {
				t.Fatal(err)
			}
			for _, want := range tc.want {
				recvFrom0(t, node1, want)
			}
		})
	}

	node0, err := openEndpoint(data.VC[0], "127.0.0.1:0", peers)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node0.Close() }()
	if err := node0.Send(1, msg); err != nil {
		t.Fatal(err)
	}
	recvFrom0(t, node1, msg)
	if got := node1.auth.Dropped(); got != 2 {
		t.Fatalf("dropped %d frames after the honest ones, want 2", got)
	}
}

// TestEndpointRefusesPayloadWithoutLinkKeys: a vc-<i>.gob written without
// link keys (by an EA from before they were dealt) does not start a node.
func TestEndpointRefusesPayloadWithoutLinkKeys(t *testing.T) {
	init := *testElection(t).VC[2]
	init.LinkKeys = nil
	path := filepath.Join(t.TempDir(), "vc-2.gob")
	if err := httpapi.WriteGobFile(path, &init); err != nil {
		t.Fatal(err)
	}
	var read ea.VCInit
	if err := httpapi.ReadGobFile(path, &read); err != nil {
		t.Fatal(err)
	}
	ep, err := openEndpoint(&read, "127.0.0.1:0", nil)
	if err == nil {
		_ = ep.Close()
		t.Fatal("a payload without link keys opened an endpoint")
	}
	if !strings.Contains(err.Error(), "link keys") {
		t.Fatalf("error %q does not name the missing link keys", err)
	}
}

// TestEndpointRefusesPayloadWithoutBallotsDir: a vc-<i>.gob that names no
// ballot segment directory does not start a node, even with the pool
// inline, and the error names ddemos-ea.
func TestEndpointRefusesPayloadWithoutBallotsDir(t *testing.T) {
	init := testElection(t).VC[2]
	if len(init.Ballots) == 0 || init.BallotsDir != "" {
		t.Fatal("want an in-process payload: an inline pool and no BallotsDir")
	}
	st, err := openBallotStore(init, filepath.Join(t.TempDir(), "vc-2.gob"), 64<<20)
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
	initPath := filepath.Join(dir, "vc-2.gob")
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

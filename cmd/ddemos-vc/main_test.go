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

// TestEndpointDropsUnauthenticatedFrames opens the endpoint ddemos-vc builds
// for node 1. A raw TCP client that claims to be node 0 gets nothing through,
// with no tag or with a bad one, and each such frame is counted; node 0's
// own endpoint, built the same way, gets its frames through.
func TestEndpointDropsUnauthenticatedFrames(t *testing.T) {
	data := testElection(t)
	node1, err := openEndpoint(data.VC[1], "127.0.0.1:0", nil, true, 0)
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

	node0, err := openEndpoint(data.VC[0], "127.0.0.1:0", map[transport.NodeID]string{1: node1.tcp.Addr()}, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node0.Close() }()
	if err := node0.Send(1, msg); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-node1.Recv():
		if env.From != 0 || !bytes.Equal(env.Payload, msg) {
			t.Fatalf("got %+v, want node 0's frame", env)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("node 0's authenticated frame never arrived")
	}
	if got := node1.auth.Dropped(); got != 2 {
		t.Fatalf("dropped %d frames after the honest one, want 2", got)
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
	ep, err := openEndpoint(&read, "127.0.0.1:0", nil, false, 0)
	if err == nil {
		_ = ep.Close()
		t.Fatal("a payload without link keys opened an endpoint")
	}
	if !strings.Contains(err.Error(), "link keys") {
		t.Fatalf("error %q does not name the missing link keys", err)
	}
}

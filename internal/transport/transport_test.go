package transport

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func recvWithTimeout(t *testing.T, ep Endpoint, d time.Duration) Envelope {
	t.Helper()
	select {
	case env, ok := <-ep.Recv():
		if !ok {
			t.Fatal("endpoint closed")
		}
		return env
	case <-time.After(d):
		t.Fatal("timed out waiting for message")
	}
	return Envelope{}
}

func TestMemnetBasicDelivery(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	if err := a.Send(2, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	env := recvWithTimeout(t, b, time.Second)
	if env.From != 1 || env.To != 2 || string(env.Payload) != "hello" {
		t.Fatalf("got %+v", env)
	}
}

func TestMemnetUnknownPeer(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	a := net.Endpoint(1)
	if err := a.Send(99, []byte("x")); err == nil {
		t.Fatal("send to unknown peer must fail")
	}
}

func TestMemnetLatency(t *testing.T) {
	net := NewMemnet(LinkProfile{Latency: 30 * time.Millisecond})
	defer func() { _ = net.Close() }()
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	start := time.Now()
	if err := a.Send(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	recvWithTimeout(t, b, time.Second)
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("delivered after %v, want >= ~30ms", elapsed)
	}
}

func TestMemnetDrop(t *testing.T) {
	net := NewMemnet(LinkProfile{DropRate: 1.0})
	defer func() { _ = net.Close() }()
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	if err := a.Send(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Recv():
		t.Fatal("message should have been dropped")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestMemnetDuplicate(t *testing.T) {
	net := NewMemnet(LinkProfile{DupRate: 1.0})
	defer func() { _ = net.Close() }()
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	if err := a.Send(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	recvWithTimeout(t, b, time.Second)
	recvWithTimeout(t, b, time.Second) // the duplicate
}

func TestMemnetPartition(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	net.Partition(1, 2, true)
	if err := a.Send(2, []byte("x")); err != nil {
		t.Fatal(err) // partition is silent, like a lossy link
	}
	select {
	case <-b.Recv():
		t.Fatal("partitioned message delivered")
	case <-time.After(50 * time.Millisecond):
	}
	net.Partition(1, 2, false)
	if err := a.Send(2, []byte("y")); err != nil {
		t.Fatal(err)
	}
	env := recvWithTimeout(t, b, time.Second)
	if string(env.Payload) != "y" {
		t.Fatalf("got %q", env.Payload)
	}
}

func TestMemnetIsolate(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	c := net.Endpoint(3)
	net.Isolate(2, true)
	_ = a.Send(2, []byte("x"))
	_ = b.Send(3, []byte("y"))
	select {
	case <-b.Recv():
		t.Fatal("isolated node received")
	case <-c.Recv():
		t.Fatal("isolated node sent")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestMemnetIsolationAndPartitionCompose(t *testing.T) {
	// Crash (Isolate) and partition are independent levers: healing a
	// partition must not reconnect a crashed node, and restoring a crashed
	// node must not heal a partition it was part of. Scenario schedules
	// overlap the two freely and rely on this.
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	a := net.Endpoint(1)
	b := net.Endpoint(2)

	net.Isolate(2, true)
	net.Partition(1, 2, true)
	net.Partition(1, 2, false) // heal while node 2 is still crashed
	_ = a.Send(2, []byte("x"))
	select {
	case <-b.Recv():
		t.Fatal("partition heal reconnected a crashed node")
	case <-time.After(50 * time.Millisecond):
	}

	net.Partition(1, 2, true)
	net.Isolate(2, false) // restore the node while the partition is live
	_ = a.Send(2, []byte("y"))
	select {
	case <-b.Recv():
		t.Fatal("restoring a crashed node healed a live partition")
	case <-time.After(50 * time.Millisecond):
	}

	net.Partition(1, 2, false)
	if err := a.Send(2, []byte("z")); err != nil {
		t.Fatal(err)
	}
	if env := recvWithTimeout(t, b, time.Second); string(env.Payload) != "z" {
		t.Fatalf("got %q after full heal", env.Payload)
	}
}

func TestMemnetPerLinkProfile(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	net.SetLink(1, 2, LinkProfile{DropRate: 1.0})
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	_ = a.Send(2, []byte("dropped"))
	if err := b.Send(1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	env := recvWithTimeout(t, a, time.Second)
	if string(env.Payload) != "ok" {
		t.Fatalf("got %q", env.Payload)
	}
}

func TestMemnetManyMessagesOrderedDelivery(t *testing.T) {
	// With zero latency/jitter, messages on one link stay ordered.
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	a := net.Endpoint(1)
	b := net.Endpoint(2)
	const total = 1000
	for i := 0; i < total; i++ {
		if err := a.Send(2, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		env := recvWithTimeout(t, b, time.Second)
		got := int(env.Payload[0]) | int(env.Payload[1])<<8
		if got != i {
			t.Fatalf("message %d arrived as %d", i, got)
		}
	}
}

func TestMemnetConcurrentSenders(t *testing.T) {
	net := NewMemnet(LinkProfile{Latency: time.Millisecond, Jitter: time.Millisecond})
	defer func() { _ = net.Close() }()
	const senders = 8
	const per = 100
	dst := net.Endpoint(0)
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		ep := net.Endpoint(NodeID(s))
		wg.Add(1)
		go func(ep Endpoint) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := ep.Send(0, []byte("m")); err != nil {
					t.Error(err)
					return
				}
			}
		}(ep)
	}
	wg.Wait()
	for i := 0; i < senders*per; i++ {
		recvWithTimeout(t, dst, 2*time.Second)
	}
	msgs, bytes := net.Stats()
	if msgs != senders*per || bytes != senders*per {
		t.Fatalf("stats: %d msgs %d bytes", msgs, bytes)
	}
}

func TestMemnetClosedNetworkRejectsSend(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	a := net.Endpoint(1)
	net.Endpoint(2)
	_ = net.Close()
	if err := a.Send(2, []byte("x")); err == nil {
		t.Fatal("send on closed network must fail")
	}
}

func TestMulticast(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	eps := make([]Endpoint, 4)
	ids := make([]NodeID, 4)
	for i := range eps {
		eps[i] = net.Endpoint(NodeID(i))
		ids[i] = NodeID(i)
	}
	if err := Multicast(eps[0], ids, []byte("all")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		env := recvWithTimeout(t, eps[i], time.Second)
		if string(env.Payload) != "all" {
			t.Fatalf("node %d got %q", i, env.Payload)
		}
	}
	// Sender must not receive its own multicast.
	select {
	case <-eps[0].Recv():
		t.Fatal("sender received own multicast")
	case <-time.After(20 * time.Millisecond):
	}
}

// linkKeys deals pairwise link keys the way the EA does: keys[i][j] is the
// key nodes i and j share, the same bytes on both sides.
func linkKeys(n int) [][][]byte {
	keys := make([][][]byte, n)
	for i := range keys {
		keys[i] = make([][]byte, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			k := bytes.Repeat([]byte{byte(16*i + j + 1)}, LinkKeySize)
			keys[i][j], keys[j][i] = k, k
		}
	}
	return keys
}

func mustAuth(t *testing.T, inner Endpoint, keys [][]byte) *Authenticated {
	t.Helper()
	a, err := NewAuthenticated(inner, keys)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// tagged builds the frame an Authenticated endpoint sends on route
// from → to under key, computed here from the definition.
func tagged(key []byte, from, to NodeID, payload []byte) []byte {
	h := hmac.New(sha256.New, key)
	h.Write([]byte{byte(from >> 8), byte(from), byte(to >> 8), byte(to)})
	h.Write(payload)
	return append(h.Sum(nil), payload...)
}

// expectNothing fails if ep yields a message within a short wait.
func expectNothing(t *testing.T, ep Endpoint) {
	t.Helper()
	select {
	case env := <-ep.Recv():
		t.Fatalf("unauthenticated frame delivered: %+v", env)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestAuthenticatedEndpointRoundTrip(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	keys := linkKeys(2)
	a := mustAuth(t, net.Endpoint(0), keys[0])
	b := mustAuth(t, net.Endpoint(1), keys[1])
	if err := a.Send(1, []byte("tagged")); err != nil {
		t.Fatal(err)
	}
	env := recvWithTimeout(t, b, time.Second)
	if string(env.Payload) != "tagged" || env.From != 0 {
		t.Fatalf("got %+v", env)
	}
	if err := b.Send(0, []byte("back")); err != nil {
		t.Fatal(err)
	}
	if env := recvWithTimeout(t, a, time.Second); string(env.Payload) != "back" || env.From != 1 {
		t.Fatalf("got %+v", env)
	}
	if a.Dropped() != 0 || b.Dropped() != 0 {
		t.Fatal("no drops expected")
	}
	if _, err := NewAuthenticated(net.Endpoint(2), nil); err == nil {
		t.Fatal("an endpoint without link keys must be refused")
	}
	if err := a.Send(7, []byte("x")); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("send to a peer without a key: %v, want ErrUnknownPeer", err)
	}
}

// TestAuthenticatedEndpointConcurrentSenders: senders share a link's keyed
// HMAC state; concurrent sends on one link and on several must each carry
// a tag that checks.
func TestAuthenticatedEndpointConcurrentSenders(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	keys := linkKeys(3)
	a := mustAuth(t, net.Endpoint(0), keys[0])
	peers := []*Authenticated{mustAuth(t, net.Endpoint(1), keys[1]), mustAuth(t, net.Endpoint(2), keys[2])}
	const senders, per = 4, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := a.Send(NodeID(1+(s+i)%2), []byte(fmt.Sprintf("%d-%d", s, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	for _, p := range peers {
		for i := 0; i < senders*per/2; i++ {
			recvWithTimeout(t, p, 2*time.Second)
		}
		if p.Dropped() != 0 {
			t.Fatalf("node %d dropped %d honest frames", p.ID(), p.Dropped())
		}
	}
}

// TestAuthenticatedEndpointRejectsForgery delivers frames on the network
// seat of node 0 to node 1 that are not 0's tag over (0, 1, payload): each is
// counted and dropped, and an honest frame sent after them still passes.
func TestAuthenticatedEndpointRejectsForgery(t *testing.T) {
	keys := linkKeys(3)
	k01 := keys[0][1]
	payload := []byte("vote-p")
	valid := tagged(k01, 0, 1, payload)
	cases := []struct {
		name  string
		frame []byte
	}{
		{"no tag", payload},
		{"forged sender: node 2's key to node 1", tagged(keys[2][1], 0, 1, payload)},
		{"wrong route: reflected 1 -> 0 frame", tagged(k01, 1, 0, payload)},
		{"wrong route: tagged for 0 -> 2", tagged(k01, 0, 2, payload)},
		{"bit flip in the payload", func() []byte { f := bytes.Clone(valid); f[len(f)-1] ^= 1; return f }()},
		{"bit flip in the tag", func() []byte { f := bytes.Clone(valid); f[0] ^= 0x80; return f }()},
		{"truncated tag", append(bytes.Clone(valid[:TagSize-1]), payload...)},
		{"shorter than a tag", bytes.Clone(valid[:TagSize-1])},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := NewMemnet(LinkProfile{})
			defer func() { _ = net.Close() }()
			b := mustAuth(t, net.Endpoint(1), keys[1])
			if err := net.Endpoint(0).Send(1, tc.frame); err != nil {
				t.Fatal(err)
			}
			expectNothing(t, b)
			if b.Dropped() != 1 {
				t.Fatalf("dropped = %d, want 1", b.Dropped())
			}
			if err := net.Endpoint(0).Send(1, valid); err != nil {
				t.Fatal(err)
			}
			if env := recvWithTimeout(t, b, time.Second); string(env.Payload) != string(payload) || env.From != 0 {
				t.Fatalf("honest frame after the forgery: got %+v", env)
			}
		})
	}
}

// TestSignedEndpointRejectsForgery: neither an untagged frame from 0's seat
// nor a frame node 2 tags with the 0-1 link key is delivered to node 1.
func TestSignedEndpointRejectsForgery(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	keys := linkKeys(3)
	b := mustAuth(t, net.Endpoint(1), keys[1])
	if err := net.Endpoint(0).Send(1, []byte("unsigned junk")); err != nil {
		t.Fatal(err)
	}
	evil := mustAuth(t, net.Endpoint(2), [][]byte{keys[2][0], keys[0][1], nil})
	if err := evil.Send(1, []byte("forged")); err != nil {
		t.Fatal(err)
	}
	expectNothing(t, b)
	if b.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", b.Dropped())
	}
}

// TestSignedEndpointCannotReplayAcrossRoutes: a frame node 1 accepts on
// route 0 -> 1 is dropped when replayed from 0's seat to node 2.
func TestSignedEndpointCannotReplayAcrossRoutes(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	keys := linkKeys(3)
	b := mustAuth(t, net.Endpoint(1), keys[1])
	c := mustAuth(t, net.Endpoint(2), keys[2])
	frame := tagged(keys[0][1], 0, 1, []byte("for b only"))
	if err := net.Endpoint(0).Send(1, frame); err != nil {
		t.Fatal(err)
	}
	if env := recvWithTimeout(t, b, time.Second); string(env.Payload) != "for b only" || env.From != 0 {
		t.Fatalf("got %+v", env)
	}
	if err := net.Endpoint(0).Send(2, frame); err != nil {
		t.Fatal(err)
	}
	expectNothing(t, c)
	if c.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", c.Dropped())
	}
}

// TestByzantineVCCannotAuthenticateHonestLink: a Byzantine node holds every
// key of its own links and none of the link between two honest nodes. Given
// the network seat of node 0, nothing it can tag reaches node 1 as node 0's,
// while the honest 0 -> 1 traffic keeps flowing.
func TestByzantineVCCannotAuthenticateHonestLink(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	keys := linkKeys(4)
	a := mustAuth(t, net.Endpoint(0), keys[0])
	b := mustAuth(t, net.Endpoint(1), keys[1])
	const byz = 2
	seat := net.Endpoint(0) // the Byzantine node speaks from 0's seat
	forged := 0
	for j, k := range keys[byz] {
		if j == byz {
			continue
		}
		for _, route := range [][2]NodeID{{0, 1}, {byz, 1}, {NodeID(j), 1}} {
			if err := seat.Send(1, tagged(k, route[0], route[1], []byte("decide"))); err != nil {
				t.Fatal(err)
			}
			forged++
		}
	}
	if err := a.Send(1, []byte("honest")); err != nil {
		t.Fatal(err)
	}
	if env := recvWithTimeout(t, b, time.Second); string(env.Payload) != "honest" {
		t.Fatalf("got %+v, want only the honest frame", env)
	}
	expectNothing(t, b)
	if b.Dropped() != int64(forged) {
		t.Fatalf("dropped = %d, want %d", b.Dropped(), forged)
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	a, err := NewTCPNode(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := NewTCPNode(1, "127.0.0.1:0", map[NodeID]string{0: a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	a.peers = map[NodeID]string{1: b.Addr()}

	if err := b.Send(0, []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	env := recvWithTimeout(t, a, 2*time.Second)
	if string(env.Payload) != "over tcp" || env.From != 1 {
		t.Fatalf("got %+v", env)
	}
	// And the reverse direction.
	if err := a.Send(1, []byte("reply")); err != nil {
		t.Fatal(err)
	}
	env = recvWithTimeout(t, b, 2*time.Second)
	if string(env.Payload) != "reply" {
		t.Fatalf("got %+v", env)
	}
}

// TestTCPOutboundNoticesPeerRestart: when a peer closes and comes back on
// the same address, the cached outbound connection is evicted on the close
// itself, and the first frame sent after the restart reaches the new
// incarnation instead of vanishing into the dead socket.
func TestTCPOutboundNoticesPeerRestart(t *testing.T) {
	b, err := NewTCPNode(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	a, err := NewTCPNode(0, "127.0.0.1:0", map[NodeID]string{1: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	if err := a.Send(1, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if env := recvWithTimeout(t, b, 2*time.Second); string(env.Payload) != "before" {
		t.Fatalf("got %+v", env)
	}

	_ = b.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		a.mu.Lock()
		_, cached := a.conns[1]
		a.mu.Unlock()
		if !cached {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the connection to the closed peer is still cached")
		}
		time.Sleep(time.Millisecond)
	}
	b, err = NewTCPNode(1, addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	if err := a.Send(1, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if env := recvWithTimeout(t, b, 2*time.Second); string(env.Payload) != "after" {
		t.Fatalf("got %+v", env)
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, err := NewTCPNode(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	if err := a.Send(9, []byte("x")); err == nil {
		t.Fatal("unknown peer must fail")
	}
}

func TestTCPManyMessages(t *testing.T) {
	a, err := NewTCPNode(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := NewTCPNode(1, "127.0.0.1:0", map[NodeID]string{0: a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	const total = 500
	for i := 0; i < total; i++ {
		if err := b.Send(0, []byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		env := recvWithTimeout(t, a, 2*time.Second)
		if string(env.Payload) != fmt.Sprintf("msg-%d", i) {
			t.Fatalf("message %d: got %q", i, env.Payload)
		}
	}
}

func BenchmarkMemnetSendRecv(b *testing.B) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	src := net.Endpoint(0)
	dst := net.Endpoint(1)
	payload := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send(1, payload); err != nil {
			b.Fatal(err)
		}
		<-dst.Recv()
	}
}

package transport

import (
	"testing"
	"time"

	"ddemos/internal/wire"
)

// testFrame builds a valid wire frame (the Batcher's payload contract).
func testFrame(i int) []byte {
	return wire.Encode(&wire.Endorse{Serial: uint64(i), Code: []byte{byte(i), byte(i >> 8)}}) //nolint:gosec // test data
}

// mustSend sends testFrame(i) to `to`.
func mustSend(t *testing.T, ep Endpoint, to NodeID, i int) {
	t.Helper()
	if err := ep.Send(to, testFrame(i)); err != nil {
		t.Fatal(err)
	}
}

// recvSerials receives n messages on ep and checks they are the test frames
// first, first+1, … in order, sent from `from`.
func recvSerials(t *testing.T, ep Endpoint, from NodeID, first, n int) {
	t.Helper()
	for i := first; i < first+n; i++ {
		env := recvWithTimeout(t, ep, 2*time.Second)
		m, err := wire.Decode(env.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.(*wire.Endorse).Serial; got != uint64(i) { //nolint:gosec // test data
			t.Fatalf("message %d arrived as %d", i, got)
		}
		if env.From != from {
			t.Fatalf("bad route %+v", env)
		}
	}
}

func TestBatcherCoalescesWithinWindow(t *testing.T) {
	// Frames that queue while the link is busy leave as one batch: frame 0
	// is held in the inner send, frames 1–9 queue behind it and cross the
	// network as a single frame.
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	g := newGatedEndpoint(net.Endpoint(1))
	a := NewBatcher(g, BatcherOptions{})
	b := NewBatcher(net.Endpoint(2), BatcherOptions{})
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	const total = 10
	mustSend(t, a, 2, 0)
	<-g.entered
	for i := 1; i < total; i++ {
		mustSend(t, a, 2, i)
	}
	close(g.pass)
	recvSerials(t, b, 1, 0, total)
	if msgs, _ := net.Stats(); msgs != 2 {
		t.Fatalf("network saw %d frames, want 2", msgs)
	}
	if batches, msgs := a.Stats(); batches != 2 || msgs != total {
		t.Fatalf("batcher stats: %d batches %d msgs", batches, msgs)
	}
}

// bigFrame is test frame i padded so that two fit in one batch's byte budget
// and three do not.
func bigFrame(i int) []byte {
	return wire.Encode(&wire.Endorse{Serial: uint64(i), Code: make([]byte, batchMaxBytes*2/5)}) //nolint:gosec // test data
}

func TestBatcherFlushesOnMaxMessages(t *testing.T) {
	// Two full batches' worth of frames queued behind an in-flight one leave
	// as two batches of batchMaxMessages.
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	g := newGatedEndpoint(net.Endpoint(1))
	a := NewBatcher(g, BatcherOptions{})
	b := NewBatcher(net.Endpoint(2), BatcherOptions{})
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	mustSend(t, a, 2, 0)
	<-g.entered
	for i := 1; i <= 2*batchMaxMessages; i++ {
		mustSend(t, a, 2, i)
	}
	close(g.pass)
	recvSerials(t, b, 1, 0, 2*batchMaxMessages+1)
	if msgs, _ := net.Stats(); msgs != 3 {
		t.Fatalf("network saw %d frames, want 3", msgs)
	}
}

func TestBatcherFlushesOnMaxBytes(t *testing.T) {
	// The byte budget holds two big frames: three queued behind an in-flight
	// one leave as a batch of two and an unwrapped singleton.
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	g := newGatedEndpoint(net.Endpoint(1))
	a := NewBatcher(g, BatcherOptions{})
	b := NewBatcher(net.Endpoint(2), BatcherOptions{})
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	mustSend(t, a, 2, 0)
	<-g.entered
	for i := 1; i <= 3; i++ {
		if err := a.Send(2, bigFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(g.pass)
	recvSerials(t, b, 1, 0, 4)
	for i, batch := range []bool{false, true, false} {
		if got := wire.IsBatchFrame(<-g.done); got != batch {
			t.Fatalf("send %d: batch frame = %v, want %v", i, got, batch)
		}
	}
}

func TestBatcherSingletonPassesThroughUnwrapped(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	a := NewBatcher(net.Endpoint(1), BatcherOptions{})
	raw := net.Endpoint(2) // receiver without a Batcher
	defer func() { _ = a.Close() }()

	frame := testFrame(7)
	if err := a.Send(2, frame); err != nil {
		t.Fatal(err)
	}
	env := recvWithTimeout(t, raw, time.Second)
	if string(env.Payload) != string(frame) {
		t.Fatalf("singleton batch rewrote the frame: %x", env.Payload)
	}
}

func TestBatcherPerDestinationQueues(t *testing.T) {
	// Each destination has its own queue and flusher: with both links busy,
	// the frames queued for each leave as one batch per destination.
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	g := newGatedEndpoint(net.Endpoint(1))
	a := NewBatcher(g, BatcherOptions{})
	b := NewBatcher(net.Endpoint(2), BatcherOptions{})
	c := NewBatcher(net.Endpoint(3), BatcherOptions{})
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()
	defer func() { _ = c.Close() }()

	mustSend(t, a, 2, 0)
	mustSend(t, a, 3, 1)
	<-g.entered
	<-g.entered
	for i := 2; i < 6; i++ {
		mustSend(t, a, NodeID(2+i%2), i)
	}
	close(g.pass)
	for i := 0; i < 6; i += 2 {
		recvSerials(t, b, 1, i, 1)
		recvSerials(t, c, 1, i+1, 1)
	}
	if msgs, _ := net.Stats(); msgs != 4 {
		t.Fatalf("network saw %d frames, want 4 (in-flight + one batch per destination)", msgs)
	}
}

func TestBatcherCloseFlushesPending(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	a := NewBatcher(net.Endpoint(1), BatcherOptions{})
	b := net.Endpoint(2)
	if err := a.Send(2, testFrame(1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	recvWithTimeout(t, b, time.Second)
	if err := a.Send(2, testFrame(2)); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
}

func TestBatcherDropsGarbageBatches(t *testing.T) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	raw := net.Endpoint(1)
	b := NewBatcher(net.Endpoint(2), BatcherOptions{})
	defer func() { _ = b.Close() }()

	garbage := []byte{byte(wire.KindBatch), 0xff, 0xff} // bad version/truncated
	if err := raw.Send(2, garbage); err != nil {
		t.Fatal(err)
	}
	if err := raw.Send(2, testFrame(3)); err != nil {
		t.Fatal(err)
	}
	env := recvWithTimeout(t, b, time.Second)
	m, err := wire.Decode(env.Payload)
	if err != nil || m.(*wire.Endorse).Serial != 3 {
		t.Fatalf("got %v %v", m, err)
	}
	if b.BadBatches() != 1 {
		t.Fatalf("bad batches = %d, want 1", b.BadBatches())
	}
}

func TestBatcherOverAuthenticatedOneTagPerBatch(t *testing.T) {
	// Stack order endpoint → Authenticated → Batcher: each batch is tagged
	// once and checked once, and unbatching yields the individual messages.
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	keys := linkKeys(2)
	g := newGatedEndpoint(net.Endpoint(0))
	a := NewBatcher(mustAuth(t, g, keys[0]), BatcherOptions{})
	b := NewBatcher(mustAuth(t, net.Endpoint(1), keys[1]), BatcherOptions{})
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	const total = 8
	mustSend(t, a, 1, 0)
	<-g.entered
	for i := 1; i < total; i++ {
		mustSend(t, a, 1, i)
	}
	close(g.pass)
	recvSerials(t, b, 0, 0, total)
	// Two network frames (the in-flight singleton, then the batch), each a
	// tag + its payload.
	msgs, bytes := net.Stats()
	if msgs != 2 {
		t.Fatalf("network saw %d frames, want 2", msgs)
	}
	var inner int64
	for i := 0; i < total; i++ {
		inner += int64(len(testFrame(i)))
	}
	if overhead := bytes - inner; overhead > 2*TagSize+6*int64(total)+16 {
		t.Fatalf("batch overhead %d bytes for %d messages", overhead, total)
	}
}

func TestBatcherOverTCP(t *testing.T) {
	srv, err := NewTCPNode(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewTCPNode(1, "127.0.0.1:0", map[NodeID]string{0: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	a := NewBatcher(cli, BatcherOptions{})
	b := NewBatcher(srv, BatcherOptions{})
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	const total = 20
	for i := 0; i < total; i++ {
		mustSend(t, a, 0, i)
	}
	recvSerials(t, b, 1, 0, total)
}

func TestBatcherOversizedFramePassesThrough(t *testing.T) {
	// Frames at or above wire.MaxBatchableFrame cannot travel inside a
	// Batch envelope (the decoder caps inner frames): they must flush the
	// queue (FIFO) and pass through unwrapped — the case of a RECOVER-RESPONSE
	// or an ACS payload carrying a whole election's certificates.
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	a := NewBatcher(net.Endpoint(1), BatcherOptions{})
	b := NewBatcher(net.Endpoint(2), BatcherOptions{})
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	small := testFrame(1)
	big := wire.Encode(&wire.RecoverResponse{Entries: []wire.AnnounceEntry{{
		Serial: 1, Code: make([]byte, wire.MaxBatchableFrame),
	}}})
	if len(big) < wire.MaxBatchableFrame {
		t.Fatalf("test frame too small: %d", len(big))
	}
	if err := a.Send(2, small); err != nil { // queued, or already in flight
		t.Fatal(err)
	}
	if err := a.Send(2, big); err != nil { // must leave after `small`, unwrapped
		t.Fatal(err)
	}
	env := recvWithTimeout(t, b, time.Second)
	if string(env.Payload) != string(small) {
		t.Fatalf("queued frame not flushed first (got %d bytes)", len(env.Payload))
	}
	env = recvWithTimeout(t, b, time.Second)
	if len(env.Payload) != len(big) {
		t.Fatalf("oversized frame mangled: got %d want %d bytes", len(env.Payload), len(big))
	}
	if b.BadBatches() != 0 {
		t.Fatalf("bad batches = %d", b.BadBatches())
	}
}

func TestBatcherFaultInjectionWholeBatches(t *testing.T) {
	// Memnet faults operate on whole frames, so with batching a drop or a
	// duplication hits an entire batch. Every delivered message must still
	// arrive intact and correctly attributed.
	net := NewMemnet(LinkProfile{DupRate: 0.3, Jitter: 500 * time.Microsecond})
	defer func() { _ = net.Close() }()
	a := NewBatcher(net.Endpoint(1), BatcherOptions{})
	b := NewBatcher(net.Endpoint(2), BatcherOptions{})
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	const total = 50
	for i := 0; i < total; i++ {
		mustSend(t, a, 2, i)
	}
	seen := make(map[uint64]int)
	deadline := time.After(5 * time.Second)
	for len(seen) < total {
		select {
		case env := <-b.Recv():
			m, err := wire.Decode(env.Payload)
			if err != nil {
				t.Fatal(err)
			}
			e := m.(*wire.Endorse)
			if e.Code[0] != byte(e.Serial) {
				t.Fatalf("payload corrupted: %+v", e)
			}
			seen[e.Serial]++
		case <-deadline:
			t.Fatalf("only %d/%d distinct messages delivered", len(seen), total)
		}
	}
	// With DupRate 0.3 some batch must have been duplicated wholesale;
	// duplicated batches duplicate every inner message.
	dups := 0
	for _, c := range seen {
		if c > 1 {
			dups++
		}
	}
	if dups == 0 {
		t.Log("no duplicated batch observed (possible but unlikely)")
	}
}

func BenchmarkBatcherSend(b *testing.B) {
	net := NewMemnet(LinkProfile{})
	defer func() { _ = net.Close() }()
	src := NewBatcher(net.Endpoint(0), BatcherOptions{})
	dst := NewBatcher(net.Endpoint(1), BatcherOptions{})
	defer func() { _ = src.Close() }()
	defer func() { _ = dst.Close() }()
	frame := testFrame(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range dst.Recv() { //nolint:revive // drain
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send(1, frame); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = src.Close()
	_ = dst.Close()
	<-done
}

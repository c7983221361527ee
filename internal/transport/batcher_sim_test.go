package transport

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ddemos/internal/sim"
	"ddemos/internal/wire"
)

// gatedEndpoint wraps an inner endpoint so a test decides when each Send
// proceeds, with no sleep and no clock. Every Send reports its payload on
// entered, then waits for a token on pass (close pass to let every Send
// through) or for Close. Past the gate it fails if its call number is in
// fail, otherwise records the payload and forwards it; either way it then
// reports the payload on done.
type gatedEndpoint struct {
	Endpoint
	entered chan []byte
	done    chan []byte
	pass    chan struct{}
	fail    map[int]bool // set before the first Send

	closed    chan struct{}
	closeOnce sync.Once
	inflight  atomic.Int32

	mu    sync.Mutex
	calls int
	sent  [][]byte
}

var errScripted = errors.New("scripted send failure")

func newGatedEndpoint(inner Endpoint) *gatedEndpoint {
	// Both reports are buffered past any test's send count, so reporting
	// never blocks a Send.
	return &gatedEndpoint{
		Endpoint: inner,
		entered:  make(chan []byte, 256),
		done:     make(chan []byte, 256),
		pass:     make(chan struct{}),
		closed:   make(chan struct{}),
	}
}

func (g *gatedEndpoint) Send(to NodeID, payload []byte) error {
	g.inflight.Add(1)
	defer g.inflight.Add(-1)
	g.entered <- payload
	select {
	case <-g.pass: // an open gate wins over a concurrent Close
	default:
		select {
		case <-g.pass:
		case <-g.closed:
			return ErrClosed
		}
	}
	defer func() { g.done <- payload }()
	g.mu.Lock()
	g.calls++
	if g.fail[g.calls] {
		g.mu.Unlock()
		return errScripted
	}
	g.sent = append(g.sent, payload)
	g.mu.Unlock()
	return g.Endpoint.Send(to, payload)
}

func (g *gatedEndpoint) Close() error {
	g.closeOnce.Do(func() { close(g.closed) })
	return g.Endpoint.Close()
}

func (g *gatedEndpoint) sentPayloads() [][]byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([][]byte(nil), g.sent...)
}

// newGatedBatcher returns a Batcher over a gated endpoint 1 on a
// zero-latency Memnet where peers 2 and 3 exist.
func newGatedBatcher(t *testing.T, opts BatcherOptions) (*Batcher, *gatedEndpoint) {
	t.Helper()
	net := NewMemnet(LinkProfile{})
	t.Cleanup(func() { _ = net.Close() })
	net.Endpoint(2)
	net.Endpoint(3)
	g := newGatedEndpoint(net.Endpoint(1))
	b := NewBatcher(g, opts)
	t.Cleanup(func() { _ = b.Close() })
	return b, g
}

// serials decodes one inner send — a batch or a lone unwrapped frame — into
// the serials of the test frames it carries.
func serials(t *testing.T, payload []byte) []uint64 {
	t.Helper()
	frames := [][]byte{payload}
	if wire.IsBatchFrame(payload) {
		var err error
		if frames, err = wire.SplitBatch(payload); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]uint64, 0, len(frames))
	for _, f := range frames {
		m, err := wire.Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m.(*wire.Endorse).Serial)
	}
	return out
}

// serialRange is the serials first..last.
func serialRange(first, last int) []uint64 {
	out := make([]uint64, 0, last-first+1)
	for i := first; i <= last; i++ {
		out = append(out, uint64(i)) //nolint:gosec // test data
	}
	return out
}

func TestBatcherIdleLinkSendsAtOnce(t *testing.T) {
	// No timer stands between an idle link and the inner endpoint: the
	// frame is handed on unwrapped with no clock in the test at all.
	b, g := newGatedBatcher(t, BatcherOptions{})
	close(g.pass)
	mustSend(t, b, 2, 7)
	if got := <-g.done; !bytes.Equal(got, testFrame(7)) {
		t.Fatalf("idle link sent %x, want the frame unwrapped", got)
	}
}

func TestBatcherQueuedFramesFormTheNextBatch(t *testing.T) {
	// One frame in flight, more queued behind it: when the in-flight send
	// returns, the queue leaves in order as the next send, cut at
	// batchMaxMessages and batchMaxBytes.
	for _, tc := range []struct {
		name   string
		frame  func(int) []byte
		queued int
		chunks [][]uint64
	}{
		{"one batch", testFrame, 5, [][]uint64{{1, 2, 3, 4, 5}}},
		{"MaxMessages", testFrame, batchMaxMessages + 1, [][]uint64{
			serialRange(1, batchMaxMessages), {batchMaxMessages + 1},
		}},
		{"MaxBytes", bigFrame, 5, [][]uint64{{1, 2}, {3, 4}, {5}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, g := newGatedBatcher(t, BatcherOptions{})
			mustSend(t, b, 2, 0)
			<-g.entered // frame 0 is held in the inner send
			for i := 1; i <= tc.queued; i++ {
				if err := b.Send(2, tc.frame(i)); err != nil {
					t.Fatal(err)
				}
			}
			close(g.pass)
			want := append([][]uint64{{0}}, tc.chunks...)
			for range want {
				<-g.done
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			sent := g.sentPayloads()
			if len(sent) != len(want) {
				t.Fatalf("%d inner sends, want %d", len(sent), len(want))
			}
			for i, p := range sent {
				if got := serials(t, p); !slices.Equal(got, want[i]) {
					t.Fatalf("send %d carried %v, want %v", i, got, want[i])
				}
			}
		})
	}
}

func TestBatcherDeferredFlushErrorSurfacesAndDropsOnlyThatChunk(t *testing.T) {
	// A flush has no caller to hand its error to: it must land in
	// SendErrors and the OnSendError hook, and a failed chunk must not stop
	// later chunks from being attempted.
	hooked := make(chan NodeID, 2) // one per failing flush
	b, g := newGatedBatcher(t, BatcherOptions{
		OnSendError: func(to NodeID, err error) { hooked <- to },
	})
	g.fail = map[int]bool{1: true, 3: true}

	// An idle link's lone frame fails: counted and hooked, not lost.
	mustSend(t, b, 2, 0)
	<-g.entered
	g.pass <- struct{}{}
	if to := <-hooked; to != 2 {
		t.Fatalf("OnSendError saw peer %d, want 2", to)
	}
	if got := b.SendErrors(); got != 1 {
		t.Fatalf("SendErrors = %d, want 1", got)
	}
	<-g.done

	// Frame 10 in flight, big frames 11–15 queued: the drain cuts [11 12]
	// [13 14] [15] at the byte budget and only the first chunk fails.
	mustSend(t, b, 3, 10)
	<-g.entered
	for i := 11; i <= 15; i++ {
		if err := b.Send(3, bigFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(g.pass)
	for i := 0; i < 4; i++ {
		<-g.done
	}
	if to := <-hooked; to != 3 {
		t.Fatalf("OnSendError saw peer %d, want 3", to)
	}
	if got := b.SendErrors(); got != 2 {
		t.Fatalf("SendErrors = %d, want 2", got)
	}
	var delivered []uint64
	for _, p := range g.sentPayloads() {
		delivered = append(delivered, serials(t, p)...)
	}
	if want := []uint64{10, 13, 14, 15}; !slices.Equal(delivered, want) {
		t.Fatalf("delivered %v, want %v (chunk [11 12] dropped)", delivered, want)
	}
}

func TestBatcherSendDoesNotWaitForAStuckFlush(t *testing.T) {
	// The inner Send to peer 2 never returns; Send must still return, to
	// peer 2 and to peer 3, whose flusher is not queued behind peer 2's.
	b, g := newGatedBatcher(t, BatcherOptions{})
	mustSend(t, b, 2, 0)
	<-g.entered
	mustSend(t, b, 2, 1)
	mustSend(t, b, 3, 2)
	if got := <-g.entered; !bytes.Equal(got, testFrame(2)) {
		t.Fatalf("peer 3's flush sent %x, want frame 2", got)
	}
}

func TestBatcherCloseDoesNotWaitForAStuckFlush(t *testing.T) {
	// Close returns while an inner Send is stuck — closing the inner
	// endpoint is what unblocks it — and no flusher outlives Close.
	b, g := newGatedBatcher(t, BatcherOptions{})
	mustSend(t, b, 2, 0)
	<-g.entered
	mustSend(t, b, 2, 1)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if n := g.inflight.Load(); n != 0 {
		t.Fatalf("%d inner sends still running after Close", n)
	}
	b.mu.Lock()
	for to, q := range b.queues {
		if q.flushing {
			t.Errorf("flusher for peer %d outlived Close", to)
		}
	}
	b.mu.Unlock()
	if err := b.Send(2, testFrame(2)); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
}

func TestBatcherEndToEndOverVirtualMemnet(t *testing.T) {
	// Link latency on the sim driver's virtual clock: frames queued behind
	// an in-flight send cross the link as one batch, and one Elapse moves
	// everything end to end.
	drv := sim.New(sim.Config{})
	net := NewMemnetWithTimers(LinkProfile{Latency: 200 * time.Microsecond}, drv)
	defer func() { _ = net.Close() }()
	g := newGatedEndpoint(net.Endpoint(1))
	a := NewBatcher(g, BatcherOptions{})
	b := NewBatcher(net.Endpoint(2), BatcherOptions{})
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	const total = 5
	mustSend(t, a, 2, 0)
	<-g.entered
	for i := 1; i < total; i++ {
		mustSend(t, a, 2, i)
	}
	close(g.pass)
	<-g.done // both sends are on the network
	<-g.done
	drv.Elapse(time.Millisecond) // one link latency, with margin
	recvSerials(t, b, 1, 0, total)
	if msgs, _ := net.Stats(); msgs != 2 {
		t.Fatalf("network saw %d frames, want 2 (in-flight + one coalesced batch)", msgs)
	}
}

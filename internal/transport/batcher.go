package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ddemos/internal/wire"
)

// DefaultBatchWindow does nothing. Every VC node batches and the Batcher has
// no window; the constant stays only because the bench/ harness reads it.
const DefaultBatchWindow = 200 * time.Microsecond

// Batch bounds. batchMaxMessages stays within wire.MaxBatchFrames so every
// batch is decodable at the receiver. batchMaxBytes keeps every encoded batch
// (payload + one possible frame over the threshold + per-frame length
// prefixes) well under maxTCPFrame, or a flush would be rejected by the
// receiving TCP read loop.
const (
	batchMaxMessages = min(128, wire.MaxBatchFrames)
	batchMaxBytes    = min(512<<10, maxTCPFrame/2)
)

// BatcherOptions configures a Batcher.
type BatcherOptions struct {
	// OnSendError, when set, observes every flush that failed to send some
	// batch (flushes run on their own goroutine and have no caller to return
	// an error to; without a hook those drops are invisible outside the
	// SendErrors counter).
	OnSendError func(to NodeID, err error)
}

// Batcher wraps an Endpoint and coalesces outgoing payloads per destination
// into wire.Batch envelopes. It is self-clocked, with no flush timer: Send
// queues the payload and, when no flush is running for that destination,
// starts one. The flusher yields once, then drains the queue until it finds
// it empty. A frame on an idle link therefore leaves at once, and the frames
// that queue while one batch is being tagged and sent form the next batch,
// cut at batchMaxMessages and batchMaxBytes. Batches grow with load instead
// of with a wait. The receive path splits incoming Batch frames back into
// individual Envelopes and passes plain frames on, so the layers above see
// the ordinary one-message-per-envelope contract on both Memnet and TCP.
//
// Payloads must be wire frames (every inter-VC message is): the unbatching
// path distinguishes batches by the leading wire.Kind byte. Stacked outside
// an Authenticated endpoint, each batch is tagged and checked exactly once.
//
// Send never blocks on the inner endpoint: each destination's flusher runs
// on its own goroutine. Per-link FIFO order holds because frames leave a
// queue only in the hands of whoever holds that link's send lock.
type Batcher struct {
	inner Endpoint
	opts  BatcherOptions

	mu     sync.Mutex
	queues map[NodeID]*destQueue
	closed bool

	flushers sync.WaitGroup
	out      chan Envelope
	done     chan struct{}

	batchesSent atomic.Int64
	msgsSent    atomic.Int64
	sendErrors  atomic.Int64
	badBatches  atomic.Int64
}

// destQueue buffers pending frames for one destination. frames and flushing
// are guarded by Batcher.mu; sendMu is held by whoever sends on the link (the
// flusher, an oversized pass-through, Close), and frames are taken off the
// queue only under it.
type destQueue struct {
	frames   [][]byte
	flushing bool // a flusher goroutine owns the queue
	sendMu   sync.Mutex
}

var _ Endpoint = (*Batcher)(nil)

// NewBatcher wraps inner with per-destination coalescing.
func NewBatcher(inner Endpoint, opts BatcherOptions) *Batcher {
	b := &Batcher{
		inner:  inner,
		opts:   opts,
		queues: make(map[NodeID]*destQueue),
		out:    make(chan Envelope, 256),
		done:   make(chan struct{}),
	}
	go b.pump()
	return b
}

// ID implements Endpoint.
func (b *Batcher) ID() NodeID { return b.inner.ID() }

// Recv implements Endpoint, yielding unbatched individual messages.
func (b *Batcher) Recv() <-chan Envelope { return b.out }

// Send implements Endpoint: the payload is queued, and a flusher for its
// destination is started unless one is already running. Failed batch sends
// surface via SendErrors and OnSendError; an error is returned only when the
// batcher is closed or when an oversized payload, which this call sends
// itself, fails.
func (b *Batcher) Send(to NodeID, payload []byte) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	q, ok := b.queues[to]
	if !ok {
		q = &destQueue{}
		b.queues[to] = q
	}
	if len(payload) >= wire.MaxBatchableFrame {
		// Too large for a batch envelope's inner-frame cap (e.g. a whole
		// election's ANNOUNCE): send what's queued to keep FIFO order, then
		// pass the frame through unwrapped.
		b.mu.Unlock()
		q.sendMu.Lock()
		qerr := b.sendChunks(to, b.take(q, false))
		err := b.inner.Send(to, payload)
		q.sendMu.Unlock()
		if qerr != nil {
			b.noteSendError(to, qerr)
		}
		return err
	}
	q.frames = append(q.frames, payload)
	start := !q.flushing
	if start {
		q.flushing = true
		b.flushers.Add(1)
	}
	b.mu.Unlock()
	if start {
		go b.flush(to, q)
	}
	return nil
}

// flush is a destination's flusher. The one yield before the first drain
// lets senders running alongside the one that started it join the first
// batch; after that, each batch is what queued while the previous one was
// being sent.
func (b *Batcher) flush(to NodeID, q *destQueue) {
	defer b.flushers.Done()
	runtime.Gosched()
	for {
		q.sendMu.Lock()
		frames := b.take(q, true)
		err := b.sendChunks(to, frames)
		q.sendMu.Unlock()
		if err != nil {
			b.noteSendError(to, err)
		}
		if len(frames) == 0 {
			return
		}
	}
}

// take empties q; the caller holds q.sendMu. A flusher that finds the queue
// empty gives up its ownership in the same critical section, so a Send that
// queues after it sees no flusher and starts one.
func (b *Batcher) take(q *destQueue, flusher bool) [][]byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	frames := q.frames
	q.frames = nil
	if flusher && len(frames) == 0 {
		q.flushing = false
	}
	return frames
}

// sendChunks hands frames to the inner endpoint in batches cut at
// batchMaxMessages and batchMaxBytes. A chunk always takes at least one frame
// — a lone frame above batchMaxBytes still fits every transport, since batchable frames
// are capped at wire.MaxBatchableFrame. After a failed chunk the rest are
// still attempted — the inner endpoint redials on failure, so one dead
// connection must not drop the rest of the queue the way it would not have
// dropped individually-sent messages — and the first error is returned.
func (b *Batcher) sendChunks(to NodeID, frames [][]byte) error {
	var firstErr error
	for len(frames) > 0 {
		cut, bytes := 0, 0
		for cut < len(frames) && cut < batchMaxMessages {
			if cut > 0 && bytes+len(frames[cut]) > batchMaxBytes {
				break
			}
			bytes += len(frames[cut])
			cut++
		}
		chunk := frames[:cut]
		frames = frames[cut:]
		if err := b.inner.Send(to, wire.EncodeBatch(chunk)); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		b.batchesSent.Add(1)
		b.msgsSent.Add(int64(len(chunk)))
	}
	return firstErr
}

// Close implements Endpoint. Pending frames are sent best-effort first, but
// only on links no flush is sending on: an in-flight send may be blocked in
// a write to a peer that stopped reading, and only closing the inner
// endpoint unblocks it. Close returns once every flusher has exited, so none
// outlives the inner endpoint.
func (b *Batcher) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()
	// b.queues is only written by Send before closed is set.
	for to, q := range b.queues {
		if q.sendMu.TryLock() {
			err := b.sendChunks(to, b.take(q, false))
			q.sendMu.Unlock()
			if err != nil {
				b.noteSendError(to, err)
			}
		}
	}
	close(b.done)
	err := b.inner.Close()
	b.flushers.Wait()
	return err
}

// Stats reports (batches sent, messages sent): the coalescing ratio.
func (b *Batcher) Stats() (batches, msgs int64) {
	return b.batchesSent.Load(), b.msgsSent.Load()
}

// SendErrors reports how many flushes failed to send some batch.
func (b *Batcher) SendErrors() int64 { return b.sendErrors.Load() }

// noteSendError records a failed flush and surfaces it to the OnSendError
// hook, if any. Callers hold no lock: the hook is caller-supplied code.
func (b *Batcher) noteSendError(to NodeID, err error) {
	b.sendErrors.Add(1)
	if b.opts.OnSendError != nil {
		b.opts.OnSendError(to, err)
	}
}

// BadBatches reports how many inbound batch envelopes failed to parse.
func (b *Batcher) BadBatches() int64 { return b.badBatches.Load() }

// pump splits inbound batch envelopes into individual messages.
func (b *Batcher) pump() {
	defer close(b.out)
	for env := range b.inner.Recv() {
		if !wire.IsBatchFrame(env.Payload) {
			if !b.emit(env) {
				return
			}
			continue
		}
		frames, err := wire.SplitBatch(env.Payload)
		if err != nil {
			b.badBatches.Add(1)
			continue
		}
		for _, f := range frames {
			if !b.emit(Envelope{From: env.From, To: env.To, Payload: f}) {
				return
			}
		}
	}
}

func (b *Batcher) emit(env Envelope) bool {
	select {
	case b.out <- env:
		return true
	case <-b.done:
		return false
	}
}

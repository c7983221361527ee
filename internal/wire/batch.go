package wire

import "fmt"

// BatchVersion is the current encoding version of the Batch envelope. The
// version byte leads the body so the format can evolve (e.g. compressed
// batches) without a new Kind; decoders reject versions they do not know.
const BatchVersion uint8 = 1

// MaxBatchFrames bounds the number of frames one Batch may carry,
// protecting decoders from hostile counts independently of maxCount.
// Senders (transport.Batcher) must keep batches within this cap or the
// receiver rejects them as malformed.
const MaxBatchFrames = 1 << 16

// MaxBatchableFrame is the largest frame that may travel inside a Batch
// envelope: inner frames are byte-string fields, capped at maxBytesLen by
// the decoder. Senders must pass larger frames through unbatched (a large
// top-level frame is fine — only its individual fields are capped).
const MaxBatchableFrame = maxBytesLen

// Batch is the coalescing envelope of the high-throughput vote-collection
// pipeline: many protocol messages to the same destination, framed once and
// (with authenticated channels) signed once. Frames holds complete encoded
// messages — each exactly what Encode produces — so batching composes with
// every other message type without re-encoding. Batches must not nest.
type Batch struct {
	Frames [][]byte
}

// Kind implements Message.
func (*Batch) Kind() Kind { return KindBatch }

func (m *Batch) appendBody(dst []byte) []byte {
	dst = append(dst, BatchVersion)
	dst = appendU32(dst, uint32(len(m.Frames))) //nolint:gosec // bounded by callers
	for _, f := range m.Frames {
		dst = appendBytes(dst, f)
	}
	return dst
}

func decodeBatch(r *reader) *Batch {
	v := r.u8("batch version")
	if r.err != nil {
		return &Batch{}
	}
	if v != BatchVersion {
		r.err = fmt.Errorf("%w: unsupported batch version %d", ErrMalformed, v)
		return &Batch{}
	}
	n := r.count("batch frames", minBatchFrame)
	if r.err != nil {
		return &Batch{}
	}
	if n > MaxBatchFrames {
		r.err = fmt.Errorf("%w: batch of %d frames", ErrMalformed, n)
		return &Batch{}
	}
	m := &Batch{Frames: make([][]byte, 0, n)}
	for i := 0; i < n; i++ {
		f := r.bytes("batch frame")
		if r.err != nil {
			return m
		}
		if len(f) == 0 {
			r.err = fmt.Errorf("%w: empty batch frame", ErrMalformed)
			return m
		}
		if Kind(f[0]) == KindBatch {
			r.err = fmt.Errorf("%w: nested batch", ErrMalformed)
			return m
		}
		m.Frames = append(m.Frames, f)
	}
	return m
}

// Unpack decodes every inner frame. Nested batches are rejected at decode
// time, so the result contains only plain protocol messages.
func (m *Batch) Unpack() ([]Message, error) {
	out := make([]Message, 0, len(m.Frames))
	for _, f := range m.Frames {
		msg, err := Decode(f)
		if err != nil {
			return nil, err
		}
		out = append(out, msg)
	}
	return out, nil
}

// IsBatchFrame reports whether an encoded frame is a Batch envelope, letting
// transports split batches without decoding the inner messages.
func IsBatchFrame(frame []byte) bool {
	return len(frame) > 0 && Kind(frame[0]) == KindBatch
}

// SplitBatch parses a Batch frame and returns its inner frames without
// decoding them — the transport unbatching path. The returned slices alias
// fresh copies (the decoder copies every byte string), so callers may retain
// them after the input buffer is reused.
func SplitBatch(frame []byte) ([][]byte, error) {
	if !IsBatchFrame(frame) {
		return nil, fmt.Errorf("%w: not a batch frame", ErrMalformed)
	}
	m, err := Decode(frame)
	if err != nil {
		return nil, err
	}
	return m.(*Batch).Frames, nil
}

// EncodeBatch frames many encoded messages into one Batch envelope. A batch
// of one is passed through unwrapped: the envelope only pays for itself when
// it amortizes framing and signature cost over several messages.
func EncodeBatch(frames [][]byte) []byte {
	if len(frames) == 1 {
		return frames[0]
	}
	return Encode(&Batch{Frames: frames})
}

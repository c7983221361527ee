package wire

import (
	"bytes"
	"errors"
	"testing"

	"ddemos/internal/codec/codectest"
)

// fuzzSeedFrames builds one representative encoded frame per message kind,
// a coalesced Batch, edge cases of the consensus-phase kinds and a few
// malformed frames — the in-code half of the seed corpus; the checked-in half
// lives under testdata/fuzz.
func fuzzSeedFrames() [][]byte {
	cert := UCert{
		Serial: 7,
		Code:   []byte("code-7"),
		Sigs: []SigEntry{
			{Signer: 0, Sig: bytes.Repeat([]byte{0xAA}, 64)},
			{Signer: 2, Sig: bytes.Repeat([]byte{0xBB}, 64)},
		},
	}
	msgs := []Message{
		&Endorse{Serial: 1, Code: []byte("vote-code")},
		&Endorsement{Serial: 1, Code: []byte("vote-code"), Signer: 3, Sig: bytes.Repeat([]byte{0xCC}, 64)},
		&VoteP{
			Serial:     7,
			Code:       []byte("code-7"),
			ShareIndex: 4,
			ShareValue: bytes.Repeat([]byte{0x11}, 32),
			ShareSig:   bytes.Repeat([]byte{0x22}, 64),
			Cert:       cert,
		},
		&AnnounceSet{Sender: 1, Bitmap: SerialBitmap{0b0100_0101, 0, 0x80}},
		&RecoverRequest{Serials: []uint64{1, 2, 9}},
		&RecoverResponse{Entries: []AnnounceEntry{{Serial: 9, Code: []byte("code-9"), Cert: cert}}},
		&Consensus{Sender: 2, Groups: []ConsensusGroup{
			{Step: StepBVal, Round: 1, Value: 1, Instances: []uint32{0, 5, 9}},
			{Step: StepDecide, Round: 3, Value: 0, Instances: []uint32{2}},
		}},
		NewRBCEcho(1, 1, []AnnounceEntry{{Serial: 7, Code: []byte("code-7"), Cert: cert}}),
		&RBCReady{Sender: 0, Broadcaster: 1, Hash: bytes.Repeat([]byte{0x5E}, 32)},
	}
	frames := make([][]byte, 0, len(msgs)+16)
	for _, m := range msgs {
		frames = append(frames, Encode(m))
	}
	announce, consensus, ready := frames[3], frames[6], frames[8]
	frames = append(frames,
		Encode(&Batch{Frames: [][]byte{frames[0], frames[1], frames[2]}}),
		[]byte{},              // empty frame
		[]byte{0xFF, 1, 2, 3}, // unknown kind
		Encode(msgs[0])[:3],   // truncated
		Encode(&RBCEcho{Sender: 2, Broadcaster: 0}), // empty proposal (ConsensusLiar)
		Encode(&Consensus{Sender: 0, Groups: []ConsensusGroup{{Step: StepDecide, Round: 0, Value: 0, Instances: []uint32{3}}}}),
		[]byte{byte(KindConsensus)},                             // bare kind, no body
		ready[:len(ready)-7],                                    // truncated hash
		append(consensus[:len(consensus):len(consensus)], 0x00), // trailing byte
		Encode(&VoteP{ // a share with its audit path: three hashes in its node's tree (m = 4), two to the ballot root (Nv = 4)
			Serial:     7,
			Code:       []byte("code-7"),
			ShareIndex: 2,
			ShareValue: bytes.Repeat([]byte{0x11}, 32),
			ShareSig:   bytes.Repeat([]byte{0x22}, 64),
			SharePath:  bytes.Repeat([]byte{0x33}, 5*32),
			Cert:       cert,
		}),
		Encode(&RBCDigest{Sender: 2, Broadcaster: 1, Hash: [32]byte{0x5E, 0x01}}),
		Encode(&RBCPull{Sender: 0, Broadcaster: 3, Hash: [32]byte{0xD1, 0x6E}}),
		Encode(&RBCPull{Sender: 0, Broadcaster: 3})[:20], // truncated digest
		announce[:len(announce)-1],                       // bitmap shorter than its length
		// A bitmap length past the frame cap, with nothing behind it.
		[]byte{byte(KindAnnounceSet), 0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
	)
	return frames
}

// FuzzDecode holds the decoder to the oracle (codectest.Check) on
// arbitrary bytes: it never panics or allocates past its bound, whatever it
// accepts re-encodes to the identical frame (encoding is canonical, decoding
// is strict), and every refusal wraps ErrMalformed.
func FuzzDecode(f *testing.F) {
	for _, frame := range fuzzSeedFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		err := codectest.Check(t, data, func(b []byte) (func() []byte, error) {
			m, err := Decode(b)
			return func() []byte { return Encode(m) }, err
		})
		if err != nil && !errors.Is(err, ErrMalformed) {
			t.Fatalf("decode error not wrapping ErrMalformed: %v", err)
		}
	})
}

// FuzzSplitBatch checks the transport unbatching path under the oracle:
// SplitBatch never panics, every frame it returns is a non-empty non-batch
// frame, and the split re-assembles into the identical batch envelope.
func FuzzSplitBatch(f *testing.F) {
	seeds := fuzzSeedFrames()
	f.Add(Encode(&Batch{Frames: [][]byte{seeds[0], seeds[1]}}))
	f.Add(Encode(&Batch{Frames: [][]byte{seeds[2]}}))
	f.Add(Encode(&Batch{}))
	f.Add([]byte{byte(KindBatch), BatchVersion, 0, 0, 0, 2}) // truncated count
	f.Add(seeds[0])                                          // not a batch
	f.Fuzz(func(t *testing.T, data []byte) {
		var frames [][]byte
		err := codectest.Check(t, data, func(b []byte) (func() []byte, error) {
			var err error
			frames, err = SplitBatch(b)
			return func() []byte { return Encode(&Batch{Frames: frames}) }, err
		})
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("split error not wrapping ErrMalformed: %v", err)
			}
			return
		}
		for i, frame := range frames {
			if len(frame) == 0 {
				t.Fatalf("frame %d is empty", i)
			}
			if IsBatchFrame(frame) {
				t.Fatalf("frame %d is a nested batch", i)
			}
		}
		if len(frames) > MaxBatchFrames {
			t.Fatalf("accepted %d frames, cap is %d", len(frames), MaxBatchFrames)
		}
	})
}

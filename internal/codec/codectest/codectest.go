// Package codectest is the decoder oracle the fuzz targets of every byte
// layout share: wire frames, VC journal records and board artefacts.
package codectest

import (
	"bytes"
	"runtime"
	"testing"
)

// Allocation bound of a decoder: at most AllocPerByte bytes per input byte,
// plus AllocSlack. Counts are bounded by the bytes left, so a short input
// cannot claim a large preallocation.
const (
	AllocPerByte = 16
	AllocSlack   = 64 << 10
)

// Check runs decode on b and holds it to the contract of every decoder here:
// it does not panic, it allocates within the bound above, and an input it
// accepts re-encodes, through the reencode it returns, to the same bytes.
// It returns decode's error for the caller's own checks.
func Check(t testing.TB, b []byte, decode func([]byte) (reencode func() []byte, err error)) error {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reencode, err := decode(b)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(AllocPerByte*len(b)+AllocSlack) {
		t.Fatalf("decoding %d bytes allocated %d", len(b), alloc)
	}
	if err == nil {
		if re := reencode(); !bytes.Equal(re, b) {
			t.Fatalf("accepted bytes re-encode differently:\n in  %x\n out %x", b, re)
		}
	}
	return err
}

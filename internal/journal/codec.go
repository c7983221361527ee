package journal

import (
	"crypto/sha256"
	"encoding/binary"
)

// HeaderLen is the length of the `kind u8 | key u64` record prefix.
const HeaderLen = 9

// Header starts a record: `kind u8 | key u64`, the prefix the routing rule
// reads. The capacity covers the small record kinds in one allocation.
func Header(kind byte, key uint64) []byte {
	return binary.BigEndian.AppendUint64(append(make([]byte, 0, 64), kind), key)
}

// HashRecords digests a node's serialized state — its records, each
// length-prefixed — so two nodes (or one node before and after a recover
// cycle) holding identical state hash identically.
func HashRecords(recs [][]byte) [32]byte {
	h := sha256.New()
	var lenBuf [4]byte
	for _, rec := range recs {
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(rec))) //nolint:gosec // record-sized
		h.Write(lenBuf[:])
		h.Write(rec)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

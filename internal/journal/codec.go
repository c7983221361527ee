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

// AppendBytes appends b with a u32 big-endian length prefix — the "bytes"
// field of the VC and BB record layouts.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b))) //nolint:gosec // protocol-bounded
	return append(dst, b...)
}

// Dec is a cursor over one record payload. A read past the end sets Bad and
// returns the zero value, and every later read does the same, so a decoder
// checks Bad once after its last field.
type Dec struct {
	Buf []byte
	Bad bool
}

// U8 reads one byte.
func (d *Dec) U8() byte {
	if b := d.Fixed(1); !d.Bad {
		return b[0]
	}
	return 0
}

// U32 reads a big-endian u32.
func (d *Dec) U32() uint32 {
	if b := d.Fixed(4); !d.Bad {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// U64 reads a big-endian u64.
func (d *Dec) U64() uint64 {
	if b := d.Fixed(8); !d.Bad {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Bytes reads a length-prefixed field written by AppendBytes, copied out of
// the payload (replay reuses its buffer). An empty field reads as nil.
func (d *Dec) Bytes() []byte {
	return append([]byte(nil), d.Fixed(int(d.U32()))...)
}

// Fixed reads an n-byte field in place: the result aliases the payload, so
// the caller parses it before the buffer is reused.
func (d *Dec) Fixed(n int) []byte {
	if d.Bad || n > len(d.Buf) {
		d.Bad = true
		return nil
	}
	out := d.Buf[:n:n]
	d.Buf = d.Buf[n:]
	return out
}

// Count reads a u32 collection size. Decoders preallocate from it, so it is
// bounded by what the rest of the payload could hold: minSize is the least
// number of bytes one element encodes to.
func (d *Dec) Count(minSize int) int {
	n := d.U32()
	if d.Bad || uint64(n)*uint64(minSize) > uint64(len(d.Buf)) { //nolint:gosec // minSize > 0
		d.Bad = true
		return 0
	}
	return int(n)
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

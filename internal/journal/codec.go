package journal

import (
	"crypto/sha256"
	"encoding/binary"
)

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
	if d.Bad || len(d.Buf) < 1 {
		d.Bad = true
		return 0
	}
	v := d.Buf[0]
	d.Buf = d.Buf[1:]
	return v
}

// U32 reads a big-endian u32.
func (d *Dec) U32() uint32 {
	if d.Bad || len(d.Buf) < 4 {
		d.Bad = true
		return 0
	}
	v := binary.BigEndian.Uint32(d.Buf)
	d.Buf = d.Buf[4:]
	return v
}

// U64 reads a big-endian u64.
func (d *Dec) U64() uint64 {
	if d.Bad || len(d.Buf) < 8 {
		d.Bad = true
		return 0
	}
	v := binary.BigEndian.Uint64(d.Buf)
	d.Buf = d.Buf[8:]
	return v
}

// Bytes reads a length-prefixed field written by AppendBytes, copied out of
// the payload (replay reuses its buffer).
func (d *Dec) Bytes() []byte {
	n := d.U32()
	if d.Bad || uint64(n) > uint64(len(d.Buf)) {
		d.Bad = true
		return nil
	}
	out := append([]byte(nil), d.Buf[:n]...)
	d.Buf = d.Buf[n:]
	return out
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

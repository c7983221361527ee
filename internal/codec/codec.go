// Package codec is the one byte layout of D-DEMOS: inter-VC wire frames,
// VC journal records and board artefacts are each written once, as a walk
// over a Coder that either appends the fields or reads them back through the
// same pointers.
//
// The rules are the same everywhere: integers are big-endian, a byte string
// is a u32 length then its bytes, a collection is a u32 count then its
// elements, and a decode accepts its input only if every field was valid and
// every byte was consumed, so encode(decode(b)) == b. A count is refused
// before anything is sized from it when it exceeds MaxCount or what the
// bytes left could hold; a byte string is refused when it is longer than its
// field's max or the bytes left. Encoding is total and never fails.
package codec

import (
	"encoding/binary"
	"math"
)

// MaxCount bounds every decoded collection, whatever the bytes left.
const MaxCount = 1 << 22

// AnyLen is the max of a byte string that only the bytes left bound.
const AnyLen = math.MaxInt32

// Coder walks a layout in one direction. An encoding walk never writes
// through its pointers; a decoding walk that meets an invalid field marks
// the Coder bad, and every later read yields zero values.
type Coder struct {
	buf []byte // encoding: the bytes written so far; decoding: the bytes not yet read
	dec bool
	bad bool
}

// Encoder returns a Coder that appends to dst.
func Encoder(dst []byte) *Coder { return &Coder{buf: dst} }

// Decoder returns a Coder that reads b.
func Decoder(b []byte) *Coder { return &Coder{buf: b, dec: true} }

// Decoding reports whether the walk reads.
func (c *Coder) Decoding() bool { return c.dec }

// Fail marks a decode bad: a field the walk read is not valid.
func (c *Coder) Fail() { c.bad = true }

// Bad reports whether a decode met an invalid or truncated field.
func (c *Coder) Bad() bool { return c.bad }

// Done reports whether a decode read valid fields and every byte.
func (c *Coder) Done() bool { return !c.bad && len(c.buf) == 0 }

// Rest returns the bytes a decode has not read yet.
func (c *Coder) Rest() []byte { return c.buf }

// Out returns what an encode wrote.
func (c *Coder) Out() []byte { return c.buf }

// Next reads the next n bytes in place: the result aliases the input, so
// the caller parses or copies it before the input is reused. It returns nil
// and marks the decode bad when fewer than n bytes are left.
func (c *Coder) Next(n int) []byte {
	if c.bad || n < 0 || n > len(c.buf) {
		c.bad = true
		return nil
	}
	b := c.buf[:n:n]
	c.buf = c.buf[n:]
	return b
}

// Fixed codes a fixed-size field in place.
func (c *Coder) Fixed(v []byte) {
	if c.dec {
		copy(v, c.Next(len(v)))
	} else {
		c.buf = append(c.buf, v...)
	}
}

// U8 codes one byte.
func (c *Coder) U8(v *uint8) {
	if !c.dec {
		c.buf = append(c.buf, *v)
	} else if b := c.Next(1); b != nil {
		*v = b[0]
	}
}

// U16 codes a big-endian u16.
func (c *Coder) U16(v *uint16) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint16(c.buf, *v)
	} else if b := c.Next(2); b != nil {
		*v = binary.BigEndian.Uint16(b)
	}
}

// U32 codes a big-endian u32.
func (c *Coder) U32(v *uint32) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint32(c.buf, *v)
	} else if b := c.Next(4); b != nil {
		*v = binary.BigEndian.Uint32(b)
	}
}

// U64 codes a big-endian u64.
func (c *Coder) U64(v *uint64) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint64(c.buf, *v)
	} else if b := c.Next(8); b != nil {
		*v = binary.BigEndian.Uint64(b)
	}
}

// Int codes an index or a size as a u32.
func (c *Coder) Int(v *int) {
	u := uint32(*v) //nolint:gosec // indices and sizes fit
	if c.U32(&u); c.dec {
		*v = int(u)
	}
}

// Bytes codes a byte string of at most max bytes. A decoded string is a
// copy, so it outlives the input; an empty one decodes as nil.
func (c *Coder) Bytes(v *[]byte, max int) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint32(c.buf, uint32(len(*v))) //nolint:gosec // bounded by callers
		c.buf = append(c.buf, *v...)
		return
	}
	var n uint32
	if c.U32(&n); uint64(n) > uint64(max) { //nolint:gosec // max >= 0
		c.bad = true
	}
	*v = append([]byte(nil), c.Next(int(n))...)
}

// String codes a string as a byte string of at most max bytes.
func (c *Coder) String(v *string, max int) {
	b := []byte(*v)
	if c.Bytes(&b, max); c.dec {
		*v = string(b)
	}
}

// Count codes a collection size: an encode writes n and returns it, a
// decode returns the count it read, or 0 when the count exceeds MaxCount or
// what the bytes left could hold at minSize bytes per element.
func (c *Coder) Count(n, minSize int) int {
	u := uint32(n) //nolint:gosec // collections are protocol-bounded
	if c.U32(&u); !c.dec {
		return n
	}
	if c.bad || u > MaxCount || int(u) > len(c.buf)/minSize {
		c.bad = true
		return 0
	}
	return int(u)
}

// List codes a collection: its count, then each element. A decode sizes the
// slice from the count, which Count has bounded first.
func List[S ~[]T, T any](c *Coder, s *S, minSize int, elem func(*Coder, *T)) {
	n := c.Count(len(*s), minSize)
	if c.dec {
		*s = make(S, n)
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

package codec

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestFieldsRoundTrip: every field decodes what it encoded, and the decode
// consumes exactly those bytes.
func TestFieldsRoundTrip(t *testing.T) {
	type fields struct {
		u8    uint8
		u16   uint16
		u32   uint32
		u64   uint64
		n     int
		fixed [3]byte
		b     []byte
		s     string
		list  []uint64
	}
	walk := func(c *Coder, f *fields) {
		c.U8(&f.u8)
		c.U16(&f.u16)
		c.U32(&f.u32)
		c.U64(&f.u64)
		c.Int(&f.n)
		c.Fixed(f.fixed[:])
		c.Bytes(&f.b, 8)
		c.String(&f.s, 8)
		List(c, &f.list, 8, (*Coder).U64)
	}
	in := fields{1, 2, 3, 4, 5, [3]byte{6, 7, 8}, []byte("nine"), "ten", []uint64{11, 12}}
	enc := Encoder(nil)
	walk(enc, &in)
	var out fields
	dec := Decoder(enc.Out())
	if walk(dec, &out); !dec.Done() {
		t.Fatalf("own encoding %x refused", enc.Out())
	}
	again := Encoder(nil)
	if walk(again, &out); !bytes.Equal(again.Out(), enc.Out()) {
		t.Fatalf("decoded %+v, want %+v", out, in)
	}
}

// TestDecodeRefusals: a count past MaxCount or past what the bytes left
// hold, a byte string past its max or the bytes left, a short fixed field
// and trailing bytes are all refused.
func TestDecodeRefusals(t *testing.T) {
	u32 := func(v uint32, rest ...byte) []byte { return append(binary.BigEndian.AppendUint32(nil, v), rest...) }
	list := func(c *Coder) { var s []uint8; List(c, &s, 1, (*Coder).U8) }
	str := func(c *Coder) { var b []byte; c.Bytes(&b, 4) }
	for _, tc := range []struct {
		name string
		in   []byte
		walk func(*Coder)
		ok   bool
	}{
		{"count the bytes hold", u32(2, 1, 2), list, true},
		{"count past the bytes", u32(3, 1, 2), list, false},
		{"count past MaxCount", append(u32(MaxCount+1), make([]byte, MaxCount+1)...), list, false},
		{"bytes at max", u32(4, 1, 2, 3, 4), str, true},
		{"bytes past max", u32(5, 1, 2, 3, 4, 5), str, false},
		{"bytes past the input", u32(4, 1, 2), str, false},
		{"short fixed", []byte{1}, func(c *Coder) { c.Fixed(make([]byte, 2)) }, false},
		{"trailing byte", []byte{1, 2}, func(c *Coder) { var v uint8; c.U8(&v) }, false},
	} {
		c := Decoder(tc.in)
		if tc.walk(c); c.Done() != tc.ok {
			t.Errorf("%s: accepted = %v, want %v", tc.name, c.Done(), tc.ok)
		}
	}
}

package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
)

// Disk is a file-backed store with fixed-size records addressed directly by
// serial number (serials are dense, starting at firstSerial). It replaces
// the paper's PostgreSQL database for the large-pool experiments: lookups
// cost one positional read, and performance degrades gracefully as the pool
// outgrows the page cache (the Fig. 5a effect).
//
// File layout (v3):
//
//	header: magic "DDVC" | version u16 | m u16 | path u16 | firstSerial u64 | count u64
//	then count records of recordSize(2*m, path) bytes: 2*m lines, each
//	Hash(32)|Salt(8)|Share(32), then the ballot's ShareSig(64), then its
//	NodePath (path hashes of 32 bytes)
//
// v2 had no path and a signature per node; v1 a signature per line. Both are
// refused.
type Disk struct {
	mu          sync.RWMutex // guards f against Close racing Get
	f           *os.File
	m           int // options per part
	path        int // NodePath hashes per record
	firstSerial uint64
	count       uint64
	bufs        sync.Pool // per-Get record buffers (*[]byte, recordSize(2*m, path) each)
}

var _ Store = (*Disk)(nil)

const (
	diskMagic    = "DDVC"
	diskVersion  = 3
	lineSize     = 32 + 8 + 32 // Line: Hash | Salt | Share
	sigSize      = 64          // BallotData.ShareSig
	hashSize     = 32          // one NodePath hash
	headerSize   = 4 + 2 + 2 + 2 + 8 + 8
	maxDiskLines = 1 << 16
	maxPath      = 16 // NodePath hashes; Nv <= 64 needs at most 6
)

// recordSize is the encoded size of a ballot with the given number of lines
// and NodePath hashes: its lines, its signature, its path. It is also what
// Cached charges for the ballot's payload.
func recordSize(lines, path int) int { return lines*lineSize + sigSize + path*hashSize }

// encodeDiskHeader builds the fixed file header (shared with the segment
// Writer, whose segment files are flat stores for their serial range).
func encodeDiskHeader(m, path int, first, count uint64) []byte {
	header := make([]byte, headerSize)
	copy(header, diskMagic)
	binary.BigEndian.PutUint16(header[4:], diskVersion)
	binary.BigEndian.PutUint16(header[6:], uint16(m))    //nolint:gosec // small
	binary.BigEndian.PutUint16(header[8:], uint16(path)) //nolint:gosec // small
	binary.BigEndian.PutUint64(header[10:], first)
	binary.BigEndian.PutUint64(header[18:], count)
	return header
}

// checkGeometry validates a ballot against the store's m and path.
func checkGeometry(b *BallotData, m, path int) error {
	if len(b.Lines[0]) != m || len(b.Lines[1]) != m {
		return fmt.Errorf("store: ballot %d has inconsistent line count", b.Serial)
	}
	if len(b.NodePath) != path*hashSize {
		return fmt.Errorf("store: ballot %d has a %d-byte node path, want %d", b.Serial, len(b.NodePath), path*hashSize)
	}
	return nil
}

// ballotGeometry is the (m, path) the first ballot of a store fixes.
func ballotGeometry(b *BallotData) (m, path int, err error) {
	m, path = len(b.Lines[0]), len(b.NodePath)/hashSize
	if m == 0 || m > maxDiskLines {
		return 0, 0, fmt.Errorf("store: invalid option count %d", m)
	}
	if path > maxPath {
		return 0, 0, fmt.Errorf("store: node path of %d hashes", path)
	}
	return m, path, checkGeometry(b, m, path)
}

// encodeRecord serializes one ballot into rec (len recordSize(2*m, path)).
func encodeRecord(rec []byte, b *BallotData, m int) {
	off := 0
	for part := 0; part < 2; part++ {
		for row := 0; row < m; row++ {
			l := &b.Lines[part][row]
			copy(rec[off:], l.Hash[:])
			copy(rec[off+32:], l.Salt[:])
			copy(rec[off+40:], l.Share[:])
			off += lineSize
		}
	}
	copy(rec[off:], b.ShareSig[:])
	copy(rec[off+sigSize:], b.NodePath)
}

// OpenDisk opens an existing store file (one segment of a Segmented store).
func OpenDisk(name string) (*Disk, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", name, err)
	}
	// Magic and version first: an older, shorter header must still be
	// refused by its version.
	header := make([]byte, headerSize)
	n, err := f.ReadAt(header, 0)
	if n < 6 || string(header[:4]) != diskMagic {
		_ = f.Close()
		return nil, fmt.Errorf("store: %s is not a ballot store", name)
	}
	if v := binary.BigEndian.Uint16(header[4:]); v != diskVersion {
		_ = f.Close()
		return nil, fmt.Errorf("store: %s is a v%d ballot store, this build reads v%d (re-run setup)", name, v, diskVersion)
	}
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("store: read header: %w", err)
	}
	m := int(binary.BigEndian.Uint16(header[6:]))
	if m == 0 || m > maxDiskLines {
		_ = f.Close()
		return nil, fmt.Errorf("store: invalid option count %d", m)
	}
	path := int(binary.BigEndian.Uint16(header[8:]))
	if path > maxPath {
		_ = f.Close()
		return nil, fmt.Errorf("store: node path of %d hashes", path)
	}
	count := binary.BigEndian.Uint64(header[18:])
	// Validate the size now, so a truncated or padded store surfaces here
	// as a clear error instead of as a confusing ReadAt failure at vote
	// time (or as silently unreadable trailing ballots).
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("store: stat %s: %w", name, err)
	}
	rec := recordSize(2*m, path)
	if count > uint64(1)<<40/uint64(rec) {
		_ = f.Close()
		return nil, fmt.Errorf("store: implausible ballot count %d", count)
	}
	want := int64(headerSize) + int64(count)*int64(rec) //nolint:gosec // bounded above
	if st.Size() != want {
		_ = f.Close()
		return nil, fmt.Errorf("store: %s holds %d bytes, want %d for %d ballots of %d options",
			name, st.Size(), want, count, m)
	}
	return &Disk{
		f:           f,
		m:           m,
		path:        path,
		firstSerial: binary.BigEndian.Uint64(header[10:]),
		count:       count,
	}, nil
}

// Get implements Store via one positional read. Concurrent Gets share the
// read lock; only Close takes it exclusively, so a Get racing Close returns
// a clean error instead of dereferencing a nil file.
func (d *Disk) Get(serial uint64) (*BallotData, error) {
	if serial < d.firstSerial || serial >= d.firstSerial+d.count {
		return nil, fmt.Errorf("%w: serial %d", ErrNotFound, serial)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.f == nil {
		return nil, fmt.Errorf("store: read serial %d: store closed", serial)
	}
	recSize := int64(recordSize(2*d.m, d.path))
	off := int64(headerSize) + int64(serial-d.firstSerial)*recSize
	// The read buffer is pooled: every Get used to allocate it fresh, which
	// at millions of ballots made the read path GC-bound before it was
	// IO-bound. The decoded BallotData still escapes to the caller.
	var rec []byte
	if p, ok := d.bufs.Get().(*[]byte); ok {
		rec = *p
	} else {
		rec = make([]byte, recSize)
	}
	defer d.bufs.Put(&rec)
	if _, err := d.f.ReadAt(rec, off); err != nil {
		return nil, fmt.Errorf("store: read serial %d: %w", serial, err)
	}
	b := &BallotData{Serial: serial}
	pos := 0
	for part := 0; part < 2; part++ {
		b.Lines[part] = make([]Line, d.m)
		for row := 0; row < d.m; row++ {
			l := &b.Lines[part][row]
			copy(l.Hash[:], rec[pos:])
			copy(l.Salt[:], rec[pos+32:])
			copy(l.Share[:], rec[pos+40:])
			pos += lineSize
		}
	}
	copy(b.ShareSig[:], rec[pos:])
	if d.path > 0 {
		b.NodePath = bytes.Clone(rec[pos+sigSize:])
	}
	return b, nil
}

// Count implements Store.
func (d *Disk) Count() int { return int(d.count) } //nolint:gosec // test scale

// Close implements Store.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f == nil {
		return nil
	}
	err := d.f.Close()
	d.f = nil
	return err
}

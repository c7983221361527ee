package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func makeBallots(t *testing.T, first uint64, n, m int) []*BallotData {
	t.Helper()
	out := make([]*BallotData, n)
	for i := 0; i < n; i++ {
		b := &BallotData{Serial: first + uint64(i)}
		for part := 0; part < 2; part++ {
			b.Lines[part] = make([]Line, m)
			for row := 0; row < m; row++ {
				l := &b.Lines[part][row]
				l.Hash[0] = byte(i)
				l.Hash[1] = byte(part)
				l.Hash[2] = byte(row)
				l.Salt[0] = byte(i + 1)
				l.Share[0] = byte(row + 7)
			}
		}
		b.ShareSig[0] = byte(i + 9)
		out[i] = b
	}
	return out
}

func TestMemStore(t *testing.T) {
	ballots := makeBallots(t, 1, 10, 3)
	s := NewMem(ballots)
	defer func() { _ = s.Close() }()
	if s.Count() != 10 {
		t.Fatalf("count = %d", s.Count())
	}
	b, err := s.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	if b.Serial != 5 || len(b.Lines[0]) != 3 || len(b.Lines[1]) != 3 {
		t.Fatalf("got %+v", b)
	}
	if _, err := s.Get(99); err == nil {
		t.Fatal("unknown serial must fail")
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vc.store")
	ballots := makeBallots(t, 1, 25, 4)
	d, err := CreateDisk(path, ballots)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count() != 25 {
		t.Fatalf("count = %d", d.Count())
	}
	for _, serial := range []uint64{1, 13, 25} {
		got, err := d.Get(serial)
		if err != nil {
			t.Fatal(err)
		}
		want := ballots[serial-1]
		if got.Serial != want.Serial || got.ShareSig != want.ShareSig {
			t.Fatalf("serial %d: got serial %d, signature match %v", want.Serial, got.Serial, got.ShareSig == want.ShareSig)
		}
		for part := 0; part < 2; part++ {
			for row := 0; row < 4; row++ {
				if got.Lines[part][row] != want.Lines[part][row] {
					t.Fatalf("serial %d part %d row %d mismatch", serial, part, row)
				}
			}
		}
	}
	if _, err := d.Get(0); err == nil {
		t.Fatal("serial 0 must fail")
	}
	if _, err := d.Get(26); err == nil {
		t.Fatal("serial 26 must fail")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal("double close must be fine")
	}

	// Reopen and read again.
	d2, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d2.Close() }()
	got, err := d2.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Lines[1][2].Hash[0] != 6 || got.Lines[1][2].Hash[1] != 1 || got.Lines[1][2].Hash[2] != 2 {
		t.Fatalf("reopened store returned wrong data: %+v", got.Lines[1][2].Hash[:3])
	}
}

func TestDiskStoreValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := CreateDisk(filepath.Join(dir, "x"), nil); err == nil {
		t.Fatal("empty ballots must fail")
	}
	// Non-dense serials.
	bad := makeBallots(t, 1, 3, 2)
	bad[2].Serial = 9
	if _, err := CreateDisk(filepath.Join(dir, "y"), bad); err == nil {
		t.Fatal("non-dense serials must fail")
	}
	// Inconsistent line counts.
	bad2 := makeBallots(t, 1, 2, 2)
	bad2[1].Lines[0] = bad2[1].Lines[0][:1]
	if _, err := CreateDisk(filepath.Join(dir, "z"), bad2); err == nil {
		t.Fatal("inconsistent lines must fail")
	}
}

func TestOpenDiskRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenDisk(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file must fail")
	}
	path := filepath.Join(dir, "garbage")
	if err := writeFile(path, []byte("this is not a store file at all")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(path); err == nil {
		t.Fatal("garbage file must fail")
	}
}

// TestOpenDiskVersions: only the current record layout opens. A file of
// another version — v1 carried a signature per line — is refused with an
// error that names its version, before any record is read.
func TestOpenDiskVersions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "versioned.store")
	d, err := CreateDisk(path, makeBallots(t, 1, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		version uint16
		refusal string // "" means it opens
	}{
		{0, "is a v0 ballot store"},
		{1, "is a v1 ballot store"},
		{2, ""},
		{3, "is a v3 ballot store"},
	} {
		binary.BigEndian.PutUint16(data[4:], tc.version)
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDisk(path)
		switch {
		case tc.refusal == "" && err != nil:
			t.Errorf("v%d: %v", tc.version, err)
		case tc.refusal != "" && (err == nil || !strings.Contains(err.Error(), tc.refusal)):
			t.Errorf("v%d: error %v, want one containing %q", tc.version, err, tc.refusal)
		}
		if err == nil {
			_ = d.Close()
		}
	}
}

func TestDiskStoreConcurrentReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conc.store")
	ballots := makeBallots(t, 1, 100, 2)
	d, err := CreateDisk(path, ballots)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Close() }()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := uint64(0); i < 200; i++ {
				serial := (seed+i)%100 + 1
				b, err := d.Get(serial)
				if err != nil {
					errs <- err
					return
				}
				if b.Serial != serial {
					errs <- ErrNotFound
					return
				}
			}
		}(uint64(g * 13))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestOpenDiskRejectsTruncatedStore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trunc.store")
	ballots := makeBallots(t, 1, 10, 3)
	d, err := CreateDisk(path, ballots)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut half a record off the tail: the header still promises 10 ballots.
	if err := os.WriteFile(path, data[:len(data)-50], 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(path); err == nil {
		t.Fatal("truncated store must be rejected at open, not at read time")
	}
	// Padding is just as wrong: trailing junk means the count lies.
	if err := os.WriteFile(path, append(data, 0xFF), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(path); err == nil {
		t.Fatal("padded store must be rejected at open")
	}
}

func TestDiskGetAfterCloseFailsCleanly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "closed.store")
	d, err := CreateDisk(path, makeBallots(t, 1, 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(1); err == nil {
		t.Fatal("get on a closed store must error, not crash")
	}
}

// TestDiskGetCloseRace drives Get concurrently with Close: every Get must
// either succeed or return an error — never nil-deref the closed file.
func TestDiskGetCloseRace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "race.store")
	d, err := CreateDisk(path, makeBallots(t, 1, 50, 2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := uint64(0); i < 500; i++ {
				_, _ = d.Get((seed+i)%50 + 1)
			}
		}(uint64(g))
	}
	_ = d.Close()
	wg.Wait()
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o600)
}

func BenchmarkMemGet(b *testing.B) {
	ballots := make([]*BallotData, 10000)
	for i := range ballots {
		ballots[i] = &BallotData{Serial: uint64(i + 1)}
		ballots[i].Lines[0] = make([]Line, 4)
		ballots[i].Lines[1] = make([]Line, 4)
	}
	s := NewMem(ballots)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(uint64(i%10000) + 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiskGet(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.store")
	ballots := make([]*BallotData, 10000)
	for i := range ballots {
		ballots[i] = &BallotData{Serial: uint64(i + 1)}
		ballots[i].Lines[0] = make([]Line, 4)
		ballots[i].Lines[1] = make([]Line, 4)
	}
	d, err := CreateDisk(path, ballots)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = d.Close() }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Get(uint64(i%10000) + 1); err != nil {
			b.Fatal(err)
		}
	}
}

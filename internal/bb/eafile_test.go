package bb

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ddemos/internal/ballot"
	"ddemos/internal/codec/codectest"
)

// fileDecoders runs the reader of every EA file; an accepted input comes
// back with a function that re-encodes what was decoded.
var fileDecoders = []struct {
	magic  string
	decode func(b []byte) (func() []byte, error)
}{
	{ManifestFile.magic, fileDecoder(ManifestFile)},
	{InitFile.magic, fileDecoder(InitFile)},
	{VCFile.magic, fileDecoder(VCFile)},
	{TrusteeFile.magic, fileDecoder(TrusteeFile)},
	{BallotsFile.magic, fileDecoder(BallotsFile)},
}

func fileDecoder[F, E any](f File[F, E]) func([]byte) (func() []byte, error) {
	return func(b []byte) (func() []byte, error) {
		v, err := f.Decode(b)
		return func() []byte { return f.Encode(&v) }, err
	}
}

// sampleFiles encodes every EA file of the fuzz election, keyed by magic.
func sampleFiles(tb testing.TB) map[string][]byte {
	data := fuzzElection(tb)
	vcInit := *data.VC[0]
	vcInit.BallotsDir = "vc-0-ballots"
	return map[string][]byte{
		ManifestFile.magic: ManifestFile.Encode(&data.Manifest),
		InitFile.magic:     InitFile.Encode(data.BB),
		VCFile.magic:       VCFile.Encode(&vcInit),
		TrusteeFile.magic:  TrusteeFile.Encode(data.Trustees[0]),
		BallotsFile.magic:  BallotsFile.Encode(&data.Ballots),
	}
}

// olderBallotsFile is a 96-byte ballots file as the gob writer of an older
// ddemos-ea laid it out, whose header claims 2^40 ballots. That ddemos-ea's
// readers sized the pool from the claim before reading a ballot and died
// with a fatal out-of-memory error; the same reader served the voter,
// loadgen, BB and trustee files.
const olderBallotsFile = "397f0301011342616c6c6f747353747265616d48656164657201ff8000010201054d61676963010c00010a4e756d42616c6c6f7473010400000025ff8001186464656d6f732d62616c6c6f74732d73747265616d2d763101fa02000000000000"

// TestEAFilesRoundTrip: every EA file decodes its own encoding and
// re-encodes it byte for byte, and refuses it with a byte missing or a byte
// to spare; a file streamed ballot by ballot equals the one written whole,
// and a stream short of its count publishes nothing.
func TestEAFilesRoundTrip(t *testing.T) {
	samples := sampleFiles(t)
	for _, d := range fileDecoders {
		b := samples[d.magic]
		reencode, err := d.decode(b)
		if err != nil {
			t.Fatalf("%s: own encoding refused: %v", d.magic, err)
		}
		if !bytes.Equal(reencode(), b) {
			t.Fatalf("%s: encode(decode(b)) != b", d.magic)
		}
		if _, err := d.decode(b[:len(b)-1]); err == nil {
			t.Fatalf("%s: truncated file accepted", d.magic)
		}
		if _, err := d.decode(append(append([]byte(nil), b...), 0)); err == nil {
			t.Fatalf("%s: trailing byte accepted", d.magic)
		}
	}

	data := fuzzElection(t)
	dir := t.TempDir()
	whole := filepath.Join(dir, "bb.bin")
	if err := InitFile.Write(whole, data.BB); err != nil {
		t.Fatal(err)
	}
	stream := func(name string, n, appends int) (string, error) {
		path := filepath.Join(dir, name)
		s, err := InitFile.Create(path, data.BB, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < appends; i++ {
			if err := s.Append(&data.BB.Ballots[0]); err != nil {
				s.Abort()
				return path, err
			}
		}
		return path, s.Close()
	}
	streamed, err := stream("streamed.bin", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(whole)
	b, _ := os.ReadFile(streamed)
	if !bytes.Equal(a, b) {
		t.Fatal("the streamed BB file differs from the one written whole")
	}
	if _, err := stream("short.bin", 2, 1); err == nil {
		t.Fatal("a stream short of its count was published")
	}
	if _, err := stream("long.bin", 1, 2); err == nil {
		t.Fatal("a stream took more elements than its count")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("failed streams left files behind: %v", entries)
	}
	if _, err := VCFile.Read(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("a missing file was read")
	}
}

// TestEAFileReadersRefuse: every EA file reader, under the decoder oracle,
// refuses with an error — not a crash, and within the oracle's allocation
// bound — a count claiming more ballots than its bytes hold, a truncated
// body, another kind's file, a later version and an older ddemos-ea's gob
// file; and the error a reader returns names the file and ddemos-ea.
func TestEAFileReadersRefuse(t *testing.T) {
	older, err := hex.DecodeString(olderBallotsFile)
	if err != nil || len(older) != 96 {
		t.Fatalf("older ballots file: %d bytes, %v", len(older), err)
	}
	data := fuzzElection(t)
	// claims replaces a file's trailing empty count with 2^32-1, the
	// largest count the field holds.
	claims := func(b []byte) []byte { return append(b[:len(b)-4:len(b)-4], 0xff, 0xff, 0xff, 0xff) }
	slimInit, slimTrustee := *data.BB, *data.Trustees[0]
	slimInit.Ballots, slimTrustee.Ballots = nil, nil
	maxCount := map[string][]byte{
		InitFile.magic:    claims(InitFile.Encode(&slimInit)),
		TrusteeFile.magic: claims(TrusteeFile.Encode(&slimTrustee)),
		BallotsFile.magic: claims(BallotsFile.Encode(new([]*ballot.Ballot))),
	}
	samples := sampleFiles(t)
	for i, d := range fileDecoders {
		own := samples[d.magic]
		later := append([]byte(nil), own...)
		later[4+len(d.magic)+1]++
		cases := map[string][]byte{
			"a truncated body":                  own[:len(own)-1],
			"another kind's file":               samples[fileDecoders[(i+1)%len(fileDecoders)].magic],
			"a later version":                   later,
			"an older ddemos-ea's ballots file": older,
		}
		if b, ok := maxCount[d.magic]; ok {
			cases["a count of 2^32-1"] = b
		}
		for name, b := range cases {
			if err := codectest.Check(t, b, d.decode); err == nil {
				t.Errorf("%s reader accepted %s", d.magic, name)
			}
		}
	}

	path := filepath.Join(t.TempDir(), "ballots.bin")
	if err := os.WriteFile(path, older, 0o600); err != nil {
		t.Fatal(err)
	}
	for _, read := range []func(string) error{
		func(p string) error { _, err := BallotsFile.Read(p); return err },
		func(p string) error { _, err := InitFile.Read(p); return err },
		func(p string) error { _, err := TrusteeFile.Read(p); return err },
	} {
		if err := read(path); err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "re-run ddemos-ea") {
			t.Errorf("error %v does not name %s and ddemos-ea", err, path)
		}
	}
}

package bb

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestLayoutsPinned pins the bytes of one board artefact per kind: readers
// compare replicas' replies by digest and trustees sign encodings, so a
// change to an artefact's layout fails here. It pins the EA's own file
// layouts too: a change to them strands every file an older ddemos-ea wrote.
func TestLayoutsPinned(t *testing.T) {
	samples := sampleArtefacts(t)
	pinned := []struct {
		kind Kind
		hash string // SHA-256 of the encoding
	}{
		{KindManifest, "e69cb08cad94bf87f40d9d0f470964b5c8b3dae1a7c1ae84757823a7b5c53420"},
		{KindInit, "1fce7a086e4a4fd91a88e00f438c7914f335d8a042ddad1045aaa72cf00cded3"},
		{KindVoteSet, "b668532e411864c541717c20461cfd6c86e9201771741efbf28a009e2c549f01"},
		{KindCast, "e67b7af7f824dc27aaf5965382b12836f809963ed880986452d98f7c89fec892"},
		{KindResult, "5c4e0e2605e12f9f9296814d2020707a8a84688e3a8fd6c47f341d8fca2de529"},
		{KindSetSubmission, "a0e42c0a22065cf67b448021bf7cce424198127f52a865c72fe3ec3425da3965"},
		{KindMskShare, "910740220f37836acf19d93f435981fd58e1c188475a9e2a17c7618ad75b5c2a"},
		{KindTrusteePost, "38c526f9d82f55ee804bf55d9c8d07ab0e2a76574b76df35323b0c581e8ec401"},
	}
	if len(pinned) != len(samples) {
		t.Fatalf("%d kinds pinned, %d sampled", len(pinned), len(samples))
	}
	for _, p := range pinned {
		b, ok := samples[p.kind]
		if !ok {
			t.Fatalf("no sample of %v", p.kind)
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != p.hash {
			t.Errorf("%v: hashes to %x, pinned %s", p.kind, sum, p.hash)
		}
	}

	// The EA's files whose layouts are not board artefacts, header included.
	files := sampleFiles(t)
	for _, p := range []struct {
		magic string
		hash  string // SHA-256 of the whole file
	}{
		{VCFile.magic, "ccee0c7da9f5f0510258b473c0532c3a32149f2c7624b51af9b8b9b1c1bb19da"},
		{TrusteeFile.magic, "33f10615c37a4ea907fb436d022ed68752d584676361f359bf5b290e837526bf"},
		{BallotsFile.magic, "58b4a124221adbceb4f151e5c0513b7133caae417ee87e54f428e05ddccf0a44"},
	} {
		if sum := sha256.Sum256(files[p.magic]); hex.EncodeToString(sum[:]) != p.hash {
			t.Errorf("%s file: hashes to %x, pinned %s", p.magic, sum, p.hash)
		}
	}
}

package wire

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestRegenerateFuzzCorpus rewrites the checked-in seed corpora under
// testdata/fuzz from fuzzSeedFrames and a few hand-built malformed frames.
// Guarded by an env var so normal test runs never touch the tree:
//
//	DDEMOS_REGEN_CORPUS=1 go test ./internal/wire -run TestRegenerateFuzzCorpus
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("DDEMOS_REGEN_CORPUS") == "" {
		t.Skip("set DDEMOS_REGEN_CORPUS=1 to rewrite testdata/fuzz")
	}
	write := func(target, name string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	frames := fuzzSeedFrames()
	names := []string{
		"seed-endorse", "seed-endorsement", "seed-votep", "seed-announce",
		"seed-recover-request", "seed-recover-response", "seed-consensus",
		"seed-rbc-echo", "seed-rbc-ready",
		"seed-batch", "seed-empty", "seed-unknown-kind", "seed-truncated",
		"seed-rbc-echo-empty", "seed-consensus-decide", "seed-consensus-bare-kind",
		"seed-rbc-ready-truncated", "seed-consensus-trailing", "seed-votep-path",
		"seed-rbc-digest", "seed-rbc-pull", "seed-rbc-pull-truncated",
		"seed-announce-set-truncated", "seed-announce-set-oversized",
	}
	if len(names) != len(frames) {
		t.Fatalf("have %d seed frames for %d names", len(frames), len(names))
	}
	for i, name := range names {
		write("FuzzDecode", name, frames[i])
	}
	endorse := frames[0]
	trailing := append(append([]byte(nil), endorse...), 0x00)
	write("FuzzDecode", "seed-trailing-bytes", trailing)

	batchOf1 := Encode(&Batch{Frames: [][]byte{endorse}})
	write("FuzzSplitBatch", "seed-batch-3", frames[9])
	write("FuzzSplitBatch", "seed-batch-1", batchOf1)
	write("FuzzSplitBatch", "seed-batch-empty", Encode(&Batch{}))
	write("FuzzSplitBatch", "seed-not-a-batch", endorse)
	write("FuzzSplitBatch", "seed-truncated-count", []byte{byte(KindBatch), BatchVersion, 0, 0, 0, 2})
	// A hand-framed batch whose inner frame is itself a batch: the decoder
	// must reject nesting.
	nested := []byte{byte(KindBatch), BatchVersion, 0, 0, 0, 1, 0, 0, 0, byte(len(batchOf1))}
	nested = append(nested, batchOf1...)
	write("FuzzSplitBatch", "seed-nested-batch", nested)
}

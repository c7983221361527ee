package acs

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestRegenerateFuzzCorpus rewrites the checked-in FuzzABAReplay seed
// corpus under testdata/fuzz — interleaving schedules, not wire frames:
// each byte picks a queued delivery (with a duplicate bit). Guarded by an env
// var so normal test runs never touch the tree:
//
//	DDEMOS_REGEN_CORPUS=1 go test ./internal/acs -run TestRegenerateFuzzCorpus
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("DDEMOS_REGEN_CORPUS") == "" {
		t.Skip("set DDEMOS_REGEN_CORPUS=1 to rewrite testdata/fuzz")
	}
	write := func(name string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", "FuzzABAReplay")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("seed-empty", []byte{})                                  // pure drain-phase run
	write("seed-fifo", []byte{0, 0, 0, 0, 0, 0, 0, 0})             // in-order head delivery
	write("seed-lifo", bytes.Repeat([]byte{0x3F}, 32))             // tail-biased reordering
	write("seed-duplicates", bytes.Repeat([]byte{0x45, 0x80}, 16)) // heavy duplication bits
	write("seed-mixed", bytes.Repeat([]byte{0x45, 0x80, 0xFF, 0x13}, 16))
}

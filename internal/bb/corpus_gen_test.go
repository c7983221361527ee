package bb_test

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"ddemos/internal/bb"
	ddcore "ddemos/internal/core"
	"ddemos/internal/ea"
	"ddemos/internal/journal"
	"ddemos/internal/voter"
)

// TestRegenerateFuzzCorpus rewrites the checked-in seed corpora of
// FuzzBoardDecode and FuzzBBJournalReplay from a real run of the fuzz
// election: every artefact a replica serves and accepts, every file the EA
// writes, and every journal record kind a publish phase writes. Guarded by an env var so normal test
// runs never touch the tree:
//
//	DDEMOS_REGEN_CORPUS=1 go test ./internal/bb -run TestRegenerateFuzzCorpus
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

	data, err := ea.Setup(bb.FuzzElectionParams)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := ddcore.NewCluster(data, ddcore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	services := []voter.Service{cluster.VCs[0], cluster.VCs[1], cluster.VCs[2], cluster.VCs[3]}
	cl := &voter.Client{Ballot: data.Ballots[0], Services: services, Patience: 10 * time.Second}
	if _, err := cl.Cast(ctx, 1); err != nil {
		t.Fatal(err)
	}
	sets, err := cluster.RunVoteSetConsensus(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.PushToBB(sets); err != nil {
		t.Fatal(err)
	}

	// A journaled replica publishes the election; its journal holds one
	// record of every kind an honest publish phase writes.
	mem := journal.NewMemJournal(journal.Options{})
	node, err := bb.NewNode(data.BB)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.RecoverBackend(mem, journal.PolicyAvailable); err != nil {
		t.Fatal(err)
	}
	feedBBState(t, cluster, node)
	post := honestPosts(t, cluster.Reader, data, 1)[0]
	if err := node.SubmitTrusteePost(post); err != nil {
		t.Fatal(err)
	}
	if _, err := node.WaitResult(ctx); err != nil {
		t.Fatal(err)
	}

	for kind := bb.KindManifest; kind <= bb.KindResult; kind++ {
		b, err := node.Read(kind)
		if err != nil {
			t.Fatal(err)
		}
		write("FuzzBoardDecode", "seed-"+kind.String(), b)
	}
	set := sets[0]
	write("FuzzBoardDecode", "seed-submit-voteset",
		bb.EncodeSetSubmission(&bb.VoteSetSubmission{VCIndex: 0, Set: set, Sig: cluster.VCs[0].SignVoteSet(set)}))
	write("FuzzBoardDecode", "seed-submit-mskshare", bb.EncodeMskShare(cluster.VCs[0].MskShare()))
	write("FuzzBoardDecode", "seed-submit-trusteepost", bb.EncodeTrusteePost(post))
	vcInit := *data.VC[0]
	vcInit.BallotsDir = "vc-0-ballots"
	write("FuzzBoardDecode", "seed-file-manifest", bb.ManifestFile.Encode(&data.Manifest))
	write("FuzzBoardDecode", "seed-file-bb-init", bb.InitFile.Encode(data.BB))
	write("FuzzBoardDecode", "seed-file-vc-init", bb.VCFile.Encode(&vcInit))
	write("FuzzBoardDecode", "seed-file-trustee-init", bb.TrusteeFile.Encode(data.Trustees[0]))
	write("FuzzBoardDecode", "seed-file-ballots", bb.BallotsFile.Encode(&data.Ballots))

	names := map[byte]string{0x11: "set", 0x16: "post", 0x17: "result", 0x18: "share"}
	seen := map[byte]bool{}
	if err := mem.Replay(func(rec []byte) error {
		if name := names[rec[0]]; name != "" && !seen[rec[0]] {
			seen[rec[0]] = true
			write("FuzzBBJournalReplay", "seed-"+name, rec)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(names) {
		t.Fatalf("journal held record kinds %v, want all of %v", seen, names)
	}
}

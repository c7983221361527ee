package vc

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ddemos/internal/ballot"
	"ddemos/internal/journal"
	"ddemos/internal/transport"
)

// backendRecords collects every record a backend replays.
func backendRecords(t *testing.T, j journal.Backend) [][]byte {
	t.Helper()
	var out [][]byte
	if err := j.Replay(func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// backendNode builds an unstarted node recovered from backend j.
func backendNode(t *testing.T, c *cluster, idx, netID int, j journal.Backend) *Node {
	t.Helper()
	node, err := New(Config{
		Init:     c.data.VC[idx],
		Endpoint: c.net.Endpoint(transport.NodeID(netID)), //nolint:gosec // test id
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.RecoverBackend(j, journal.PolicyAvailable); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)
	return node
}

// TestBackendDifferentialEquivalence drives the record stream of an
// identical seeded election through the memory backend and the file engine
// at 1, 2 and 4 lanes and asserts the recovered Node.StateHash is
// byte-identical. The stream is harvested from a real journaled election,
// so the equivalence claim covers real protocol records (certs, shares,
// receipts), not synthetic ones. An empty batch rides along as one more
// input: every backend must accept it as a no-op.
func TestBackendDifferentialEquivalence(t *testing.T) {
	c := journaledCluster(t, 3)
	for serial := uint64(1); serial <= 3; serial++ {
		if _, err := c.simVote(serial, ballot.PartA, int(serial)%2, int(serial)%4); err != nil {
			t.Fatal(err)
		}
	}
	// Stop node 0 cleanly (journal synced + closed) and harvest its stream.
	c.StopNode(0)
	src, err := journal.Open(c.dirs[0], journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := backendRecords(t, src)
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("election journaled no records")
	}

	// Feed the identical stream into a fresh backend of each shape; close
	// and reopen the file engine (a full recovery cycle, torn-tail scan
	// included).
	feed := func(j journal.Backend) {
		t.Helper()
		if err := j.Append(nil); err != nil {
			t.Fatalf("empty batch: %v", err)
		}
		if err := j.Append(recs); err != nil {
			t.Fatal(err)
		}
	}
	mem := journal.NewMemJournal(journal.Options{})
	feed(mem)
	hashes := map[string][32]byte{"memory": backendNode(t, c, 0, 90, mem).StateHash()}
	for i, lanes := range []int{1, 2, 4} {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("lanes-%d", lanes))
		opts := journal.Options{Pool: lanes}
		j, err := journal.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		feed(j)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if j, err = journal.Open(dir, opts); err != nil {
			t.Fatal(err)
		}
		hashes[fmt.Sprintf("%d lanes", lanes)] = backendNode(t, c, (i+1)%4, 91+i, j).StateHash()
	}
	// All match the election state the stream came from.
	c.RestartNode(0)
	want := c.node(0).StateHash()
	for name, got := range hashes {
		if got != want {
			t.Errorf("%s backend recovered different state than the origin node", name)
		}
	}
}

// TestPooledElectionRecovery runs a full seeded election on pooled journals
// (3 lanes per node, snapshot pressure on) and asserts every node recovers
// to its exact pre-stop state — the end-to-end pooled analogue of
// TestRecoverRestoresVotedStateAndReceipt.
func TestPooledElectionRecovery(t *testing.T) {
	dirs := journalDirs(t, 4)
	jopts := journal.Options{Pool: 3, SnapshotEvery: 4}
	c := newSimClusterJ(t, 1, nil, 4, 4,
		transport.LinkProfile{Latency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond},
		rawStack, dirs, jopts)
	receipts := make(map[uint64][]byte)
	for serial := uint64(1); serial <= 4; serial++ {
		r, err := c.simVote(serial, ballot.PartB, int(serial)%2, int(serial)%4)
		if err != nil {
			t.Fatal(err)
		}
		receipts[serial] = r
	}
	for i := 0; i < 4; i++ {
		old := c.node(i)
		c.StopNode(i)
		want := old.StateHash()
		c.RestartNode(i)
		if got := c.node(i).StateHash(); got != want {
			t.Fatalf("node %d: pooled recovery state hash differs", i)
		}
	}
	// Receipts reproduce at recovered nodes.
	for serial, want := range receipts {
		r, err := c.simVote(serial, ballot.PartB, int(serial)%2, int(serial)%4)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r, want) {
			t.Fatalf("ballot %d: receipt changed across pooled recovery", serial)
		}
	}
	// Snapshot pressure (threshold 4) must have produced lane snapshots.
	snaps := 0
	for i := 0; i < 4; i++ {
		entries, err := os.ReadDir(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if len(e.Name()) >= 9 && e.Name()[:9] == "snapshot-" {
				snaps++
			}
		}
	}
	if snaps == 0 {
		t.Fatal("no lane snapshot was ever written")
	}
}

package vc

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ddemos/internal/ballot"
	"ddemos/internal/crypto/shamir"
	"ddemos/internal/journal"
	"ddemos/internal/store"
	"ddemos/internal/transport"
	"ddemos/internal/wire"
)

// journaledCluster builds a 4-node sim cluster with per-node journals over
// a mildly lossy link.
func journaledCluster(t *testing.T, numBallots int) *cluster {
	t.Helper()
	return newSimCluster(t, 1, nil, numBallots, 4,
		transport.LinkProfile{Latency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond},
		rawStack, true)
}

// simVote submits (serial, part, option) at node `at` under a virtual
// deadline.
func (c *cluster) simVote(serial uint64, part ballot.PartID, option, at int) ([]byte, error) {
	code, err := c.data.Ballots[serial-1].CodeFor(part, option)
	if err != nil {
		c.t.Fatal(err)
	}
	ctx, cancel := c.drv.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return c.node(at).SubmitVote(ctx, serial, code)
}

func TestRecoverRestoresVotedStateAndReceipt(t *testing.T) {
	c := journaledCluster(t, 3)
	r1, err := c.simVote(1, ballot.PartA, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Crash node 0 and restart it from its journal. The in-memory state of
	// the stopped incarnation is the reference: everything it held must be
	// journaled by the time Stop returns.
	old := c.node(0)
	c.StopNode(0)
	wantHash := old.StateHash()
	c.RestartNode(0)
	if got := c.node(0).StateHash(); got != wantHash {
		t.Fatal("recovered state hash differs from pre-crash state")
	}
	// Receipt stability: resubmitting the same code at the restarted node
	// must return the identical receipt, straight from recovered state.
	r2, err := c.simVote(1, ballot.PartA, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1, r2) {
		t.Fatalf("receipt changed across restart: %x != %x", r1, r2)
	}
	// A different code must still be refused after recovery.
	if _, err := c.simVote(1, ballot.PartB, 1, 0); err == nil {
		t.Fatal("conflicting code accepted after restart")
	}
	if s := old.Metrics(); s.JournalRecords == 0 {
		t.Fatal("the pre-crash incarnation journaled no transitions")
	}
}

func TestRecoverTwiceIsIdempotent(t *testing.T) {
	c := journaledCluster(t, 2)
	if _, err := c.simVote(1, ballot.PartA, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.simVote(2, ballot.PartB, 0, 1); err != nil {
		t.Fatal(err)
	}
	c.StopNode(0)
	c.RestartNode(0)
	h1 := c.node(0).StateHash()
	c.StopNode(0)
	c.RestartNode(0)
	h2 := c.node(0).StateHash()
	if h1 != h2 {
		t.Fatal("recover is not idempotent: state hashes differ")
	}
}

// journalDirNode builds an unstarted node recovered from dir — the harness
// for synthetic-journal replay tests.
func journalDirNode(t *testing.T, c *cluster, idx int, dir string) *Node {
	t.Helper()
	node, err := New(Config{
		Init:     c.data.VC[idx],
		Endpoint: c.net.Endpoint(transport.NodeID(90 + idx)), //nolint:gosec // test id
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.RecoverWithOptions(dir, journal.Options{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)
	return node
}

// The one-lane layout of a journal directory (internal/journal's package
// comment): lane 0's first segment and its snapshot.
const (
	lane0Segment  = "wal-0.000001"
	lane0Snapshot = "snapshot-0"
)

// appendRaw writes pre-encoded journal records straight into dir's one-lane
// journal.
func appendRaw(t *testing.T, dir string, recs ...[]byte) {
	t.Helper()
	j, err := journal.Open(dir, journal.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// syntheticRecords builds a consistent transition history for ballot 1 of
// the test election: endorsed, pending under a (unverified — replay trusts
// its own journal) cert, two shares, voted.
func syntheticRecords(code []byte) (recs [][]byte) {
	cert := &wire.UCert{Serial: 1, Code: code, Sigs: []wire.SigEntry{
		{Signer: 0, Sig: bytes.Repeat([]byte{1}, 64)},
		{Signer: 1, Sig: bytes.Repeat([]byte{2}, 64)},
		{Signer: 2, Sig: bytes.Repeat([]byte{3}, 64)},
	}}
	receipt := bytes.Repeat([]byte{0xAB}, 8)
	return [][]byte{
		record{kind: recEndorsed, serial: 1, code: code}.bytes(),
		record{kind: recPending, serial: 1, code: code, part: 0, row: 1, cert: cert}.bytes(),
		record{kind: recShare, serial: 1, share: shamir.Share{Index: 1, Value: big.NewInt(11)}}.bytes(),
		record{kind: recShare, serial: 1, share: shamir.Share{Index: 2, Value: big.NewInt(22)}}.bytes(),
		record{kind: recVoted, serial: 1, code: code, receipt: receipt}.bytes(),
	}
}

func TestReplayDuplicateRecordsIsIdempotent(t *testing.T) {
	c := journaledCluster(t, 2)
	code, err := c.data.Ballots[0].CodeFor(ballot.PartA, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords(code)
	clean := filepath.Join(t.TempDir(), "clean")
	appendRaw(t, clean, recs...)
	// Duplicate every record, twice over, interleaved out of order.
	dup := filepath.Join(t.TempDir(), "dup")
	shuffled := [][]byte{recs[3], recs[0], recs[1], recs[2], recs[3], recs[4]}
	shuffled = append(shuffled, recs...)
	shuffled = append(shuffled, recs[4], recs[2])
	appendRaw(t, dup, shuffled...)

	n1 := journalDirNode(t, c, 0, clean)
	n2 := journalDirNode(t, c, 1, dup)
	if n1.StateHash() != n2.StateHash() {
		t.Fatal("duplicated+reordered journal produced different state")
	}
	status, used := n2.BallotStatus(1)
	if status != Voted || !bytes.Equal(used, code) {
		t.Fatalf("replayed state: status=%v code=%x", status, used)
	}
	st := n2.state(1)
	st.mu.Lock()
	shares, receipt := len(st.shares), st.receipt
	st.mu.Unlock()
	if shares != 2 {
		t.Fatalf("duplicate shares applied %d times", shares)
	}
	if !bytes.Equal(receipt, bytes.Repeat([]byte{0xAB}, 8)) {
		t.Fatal("replayed receipt differs")
	}
}

func TestReplaySnapshotLogDisagreement(t *testing.T) {
	// A crash between snapshot rename and segment deletion leaves a snapshot
	// that already covers records still sitting in the log. Replay must
	// treat the overlap as no-ops.
	c := journaledCluster(t, 2)
	code, err := c.data.Ballots[0].CodeFor(ballot.PartB, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords(code)
	dir := filepath.Join(t.TempDir(), "overlap")
	if err := os.MkdirAll(dir, 0o700); err != nil {
		t.Fatal(err)
	}
	// Snapshot holds the first four transitions; the log holds all five.
	if err := store.WriteWALFile(filepath.Join(dir, lane0Snapshot), recs[:4]); err != nil {
		t.Fatal(err)
	}
	appendRaw(t, dir, recs...)

	clean := filepath.Join(t.TempDir(), "clean")
	appendRaw(t, clean, recs...)
	n1 := journalDirNode(t, c, 0, clean)
	n2 := journalDirNode(t, c, 1, dir)
	if n1.StateHash() != n2.StateHash() {
		t.Fatal("snapshot+log overlap produced different state than the plain log")
	}
}

func TestReplayTornTailKeepsPrefix(t *testing.T) {
	c := journaledCluster(t, 2)
	code, err := c.data.Ballots[0].CodeFor(ballot.PartA, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords(code)
	dir := filepath.Join(t.TempDir(), "torn")
	appendRaw(t, dir, recs...)
	// Tear the final (voted) record in half.
	path := filepath.Join(dir, lane0Segment)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-9], 0o600); err != nil {
		t.Fatal(err)
	}
	n := journalDirNode(t, c, 0, dir)
	status, used := n.BallotStatus(1)
	if status != Pending || !bytes.Equal(used, code) {
		t.Fatalf("torn-tail replay: status=%v code=%x (want Pending with the certified code)", status, used)
	}
	// The next incarnation appends after the tear: recover again and the
	// log must still be usable.
	n.Stop()
	n2 := journalDirNode(t, c, 1, dir)
	if _, used := n2.BallotStatus(1); !bytes.Equal(used, code) {
		t.Fatal("second recovery after tear lost the certified code")
	}
}

func TestReplayRejectsGarbageRecord(t *testing.T) {
	c := journaledCluster(t, 2)
	dir := filepath.Join(t.TempDir(), "garbage")
	// A record with a valid CRC but an unknown kind byte: not a tear —
	// version skew or a foreign file — so recovery must fail loudly.
	appendRaw(t, dir, []byte{0x7F, 1, 2, 3})
	node, err := New(Config{
		Init:     c.data.VC[0],
		Endpoint: c.net.Endpoint(transport.NodeID(95)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	if err := node.RecoverWithOptions(dir, journal.Options{}); err == nil {
		t.Fatal("garbage journal record must fail recovery")
	}
}

// TestReplayKeylessVSCRecord: the vote-set layout journals held before every
// record carried a routing key (kind 6, no key) is not replayed — recovery
// fails on it — while today's keyed record of the same set recovers.
func TestReplayKeylessVSCRecord(t *testing.T) {
	c := journaledCluster(t, 2)
	code, err := c.data.Ballots[0].CodeFor(ballot.PartA, 0)
	if err != nil {
		t.Fatal(err)
	}
	v0 := binary.BigEndian.AppendUint32([]byte{6}, 1)
	v0 = binary.BigEndian.AppendUint64(v0, 1)
	v0 = append(binary.BigEndian.AppendUint32(v0, uint32(len(code))), code...) //nolint:gosec // a vote code
	oldDir := filepath.Join(t.TempDir(), "keyless")
	appendRaw(t, oldDir, v0)
	node, err := New(Config{
		Init:     c.data.VC[0],
		Endpoint: c.net.Endpoint(transport.NodeID(97)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	if err := node.RecoverWithOptions(oldDir, journal.Options{}); err == nil {
		t.Fatal("a keyless vsc record replayed")
	}

	newDir := filepath.Join(t.TempDir(), "keyed")
	appendRaw(t, newDir, record{kind: recVSC, set: &[]VotedBallot{{Serial: 1, Code: code}}}.bytes())
	n := journalDirNode(t, c, 1, newDir)
	ctx, cancel := c.drv.WithTimeout(context.Background(), time.Second)
	defer cancel()
	got, err := n.VoteSetConsensus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Serial != 1 || !bytes.Equal(got[0].Code, code) {
		t.Fatalf("keyed vsc record replayed as %+v", got)
	}
}

func TestSnapshotTruncatesLogAndRecovers(t *testing.T) {
	c := journaledCluster(t, 2)
	code, err := c.data.Ballots[0].CodeFor(ballot.PartA, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "snap")
	node, err := New(Config{
		Init:     c.data.VC[0],
		Endpoint: c.net.Endpoint(transport.NodeID(96)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	if err := node.RecoverWithOptions(dir, journal.Options{SnapshotEvery: 4}); err != nil {
		t.Fatal(err)
	}
	// Apply + journal a history long enough to cross the threshold twice.
	recs := syntheticRecords(code)
	for round := 0; round < 3; round++ {
		for _, rec := range recs {
			if err := node.applyJournalRecord(rec); err != nil {
				t.Fatal(err)
			}
			node.journalAppend(rec)
		}
	}
	// Stop waits out the background captures before the directory is read.
	want := node.StateHash()
	node.Stop()
	if s := node.Metrics(); s.Snapshots == 0 {
		t.Fatal("snapshot threshold never triggered")
	}
	if _, err := os.Stat(filepath.Join(dir, lane0Snapshot)); err != nil {
		t.Fatalf("no lane snapshot file: %v", err)
	}
	// Each completed snapshot deleted the segments it sealed: the lane is
	// down to its active segment, holding less than the 15 records logged.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-0.*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("sealed segments not deleted: %v", segs)
	}
	nWal, err := store.ReplayWAL(segs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if nWal >= 15 {
		t.Fatalf("log not truncated: %d records", nWal)
	}
	n2 := journalDirNode(t, c, 1, dir)
	if n2.StateHash() != want {
		t.Fatal("snapshot+log recovery produced different state")
	}
}

func TestVSCResultStableAcrossRestart(t *testing.T) {
	c := journaledCluster(t, 4)
	for serial := uint64(1); serial <= 3; serial++ {
		if _, err := c.simVote(serial, ballot.PartA, int(serial)%2, int(serial)%4); err != nil {
			t.Fatal(err)
		}
	}
	sets := make([][]VotedBallot, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := c.drv.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			set, err := c.node(i).VoteSetConsensus(ctx)
			if err != nil {
				t.Errorf("node %d consensus: %v", i, err)
				return
			}
			sets[i] = set
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// Restart node 0: its recovered consensus result must be byte-identical
	// without touching the network (the peers are done with consensus and
	// would not answer a rerun).
	c.StopNode(0)
	c.RestartNode(0)
	ctx, cancel := c.drv.WithTimeout(context.Background(), time.Second)
	defer cancel()
	again, err := c.node(0).VoteSetConsensus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(sets[0]) {
		t.Fatalf("recovered set has %d ballots, want %d", len(again), len(sets[0]))
	}
	for i := range again {
		if again[i].Serial != sets[0][i].Serial || !bytes.Equal(again[i].Code, sets[0][i].Code) {
			t.Fatalf("recovered set differs at %d", i)
		}
	}
}

func TestJournaledElectionMatchesMemoryOnly(t *testing.T) {
	// The journal must not change protocol outcomes: the same seeded
	// election, journaled and memory-only, issues the same receipts.
	run := func(journaled bool) map[uint64][]byte {
		receipts := make(map[uint64][]byte)
		t.Run(fmt.Sprintf("journaled=%v", journaled), func(t *testing.T) {
			c := newSimCluster(t, 7, nil, 4, 4,
				transport.LinkProfile{Latency: 200 * time.Microsecond}, rawStack, journaled)
			for serial := uint64(1); serial <= 4; serial++ {
				r, err := c.simVote(serial, ballot.PartB, int(serial)%2, int(serial)%4)
				if err != nil {
					t.Fatal(err)
				}
				receipts[serial] = r
			}
		})
		return receipts
	}
	with := run(true)
	without := run(false)
	for serial, r := range with {
		if !bytes.Equal(r, without[serial]) {
			t.Fatalf("ballot %d: journaled receipt differs from memory-only", serial)
		}
	}
}

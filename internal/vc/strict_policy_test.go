package vc

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"ddemos/internal/ballot"
	"ddemos/internal/ea"
	"ddemos/internal/journal"
	"ddemos/internal/sim"
	"ddemos/internal/transport"
	"ddemos/internal/wire"
)

// errInjected is the journal fault injected by these tests.
var errInjected = errors.New("injected journal failure")

// failKindJournal wraps a backend and fails appends that contain a record
// of the targeted kind — the scalpel for failing exactly the voted-record
// append while the endorsement/share plumbing stays healthy.
type failKindJournal struct {
	*journal.MemJournal
	kind    byte
	failing atomic.Bool
}

func (f *failKindJournal) Append(recs [][]byte) error {
	if f.failing.Load() {
		for _, r := range recs {
			if len(r) > 0 && r[0] == f.kind {
				return errInjected
			}
		}
	}
	return f.MemJournal.Append(recs)
}

// strictCluster builds a 4-node sim cluster whose nodes run on injectable
// MemJournal-backed journals under the given ack policy.
func strictCluster(t *testing.T, policy journal.AckPolicy, wrap func(i int, m *journal.MemJournal) journal.Backend) (*cluster, []*journal.MemJournal) {
	t.Helper()
	start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	data, err := ea.Setup(ea.Params{
		ElectionID:  "vc-strict-test",
		Options:     []string{"yes", "no"},
		NumBallots:  6,
		NumVC:       4,
		NumBB:       1,
		NumTrustees: 1,
		VotingStart: start,
		VotingEnd:   start.Add(2 * time.Hour),
		VCOnly:      true,
		Seed:        []byte("vc-strict-seed"),
	})
	if err != nil {
		t.Fatal(err)
	}
	drv := sim.New(sim.Config{Start: start.Add(time.Minute)})
	net := transport.NewMemnetWithTimers(transport.LinkProfile{Latency: 200 * time.Microsecond}, drv)
	c := &cluster{t: t, data: data, net: net, drv: drv, dirs: make([]string, 4),
		stack: rawStack}
	mems := make([]*journal.MemJournal, 4)
	for i := 0; i < 4; i++ {
		node, err := New(Config{
			Init:     data.VC[i],
			Endpoint: net.Endpoint(transport.NodeID(i)), //nolint:gosec // small
			Clock:    drv,
		})
		if err != nil {
			t.Fatal(err)
		}
		mems[i] = journal.NewMemJournal(journal.Options{})
		var backend journal.Backend = mems[i]
		if wrap != nil {
			backend = wrap(i, mems[i])
		}
		if err := node.RecoverBackend(backend, policy); err != nil {
			t.Fatal(err)
		}
		node.Start()
		c.nodes = append(c.nodes, node)
	}
	t.Cleanup(c.stop)
	t.Cleanup(drv.Spin())
	return c, mems
}

// TestStrictRefusesEndorsementAndVoteOnJournalFailure: with every journal
// failing, a Strict responder refuses the submission outright, and Strict
// peers stay silent on ENDORSE — no endorsement signature leaves a node
// that could forget having issued it.
func TestStrictRefusesEndorsementAndVoteOnJournalFailure(t *testing.T) {
	c, mems := strictCluster(t, journal.PolicyStrict, nil)

	// Baseline: Strict with a healthy journal behaves normally.
	r, err := c.simVote(1, ballot.PartA, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r, c.expectedReceipt(1, ballot.PartA, 0)) {
		t.Fatal("wrong receipt under healthy strict journal")
	}

	// Break every journal: the responder must fail fast (its own endorse
	// append fails before anything is multicast).
	for _, m := range mems {
		m.SetAppendError(errInjected)
	}
	if _, err := c.simVote(2, ballot.PartA, 0, 0); err == nil {
		t.Fatal("strict node issued a receipt with a failing journal")
	}
	if got := c.node(0).Metrics().StrictRefusals; got == 0 {
		t.Fatal("no strict refusal recorded")
	}

	// Heal only the responder: peers now refuse to endorse, so the
	// collection starves — no peer signs what it cannot remember.
	mems[0].SetAppendError(nil)
	ctx, cancel := c.drv.WithTimeout(context.Background(), 2*time.Second)
	code := mustCode(t, c, 3, ballot.PartA, 1)
	_, err = c.node(0).SubmitVote(ctx, 3, code)
	cancel()
	if err == nil {
		t.Fatal("receipt formed although strict peers cannot journal endorsements")
	}
	refusals := int64(0)
	for i := 1; i < 4; i++ {
		refusals += c.node(i).Metrics().StrictRefusals
	}
	if refusals == 0 {
		t.Fatal("no peer recorded a strict endorsement refusal")
	}

	// Heal everything: the same ballots now complete, including the one
	// whose endorsement record was refused earlier (the durable-retry
	// path re-journals it).
	for _, m := range mems {
		m.SetAppendError(nil)
	}
	r2, err := c.simVote(2, ballot.PartA, 0, 0)
	if err != nil {
		t.Fatalf("healed journal did not recover liveness: %v", err)
	}
	if !bytes.Equal(r2, c.expectedReceipt(2, ballot.PartA, 0)) {
		t.Fatal("wrong receipt after heal")
	}
}

// TestStrictWithholdsReceiptUntilDurable: the voted record specifically
// fails on every node, so shares flow and the receipt reconstructs in
// memory — but no node may release it. After the journal heals, a
// resubmission re-journals and releases the identical receipt.
func TestStrictWithholdsReceiptUntilDurable(t *testing.T) {
	var fails []*failKindJournal
	c, _ := strictCluster(t, journal.PolicyStrict, func(i int, m *journal.MemJournal) journal.Backend {
		f := &failKindJournal{MemJournal: m, kind: recVoted}
		f.failing.Store(true)
		fails = append(fails, f)
		return f
	})
	if _, err := c.simVote(1, ballot.PartB, 1, 0); err == nil {
		t.Fatal("receipt released without a durable voted record")
	}
	// The memory state very likely holds the reconstructed receipt — the
	// point is that it was not released.
	for _, f := range fails {
		f.failing.Store(false)
	}
	r, err := c.simVote(1, ballot.PartB, 1, 0)
	if err != nil {
		t.Fatalf("healed journal did not release the receipt: %v", err)
	}
	if !bytes.Equal(r, c.expectedReceipt(1, ballot.PartB, 1)) {
		t.Fatal("released receipt is wrong")
	}
}

// TestStrictRebindsAfterBindingAppendFailure: the binding (pending) record
// specifically fails, so the responder refuses the submission after its
// state went Pending. A resubmission after the heal must not hang on the
// Pending wait arm — it re-drives the flow, re-journals the binding, and
// completes.
func TestStrictRebindsAfterBindingAppendFailure(t *testing.T) {
	var fails []*failKindJournal
	c, _ := strictCluster(t, journal.PolicyStrict, func(i int, m *journal.MemJournal) journal.Backend {
		f := &failKindJournal{MemJournal: m, kind: recPending}
		f.failing.Store(true)
		fails = append(fails, f)
		return f
	})
	if _, err := c.simVote(1, ballot.PartA, 0, 0); err == nil {
		t.Fatal("submission succeeded although the binding record could not land")
	}
	for _, f := range fails {
		f.failing.Store(false)
	}
	r, err := c.simVote(1, ballot.PartA, 0, 0)
	if err != nil {
		t.Fatalf("resubmission after heal did not recover: %v", err)
	}
	if !bytes.Equal(r, c.expectedReceipt(1, ballot.PartA, 0)) {
		t.Fatal("recovered receipt is wrong")
	}
	// The binding made it to the journal this time: the responder's log
	// holds a pending record a restart could replay.
	found := false
	if err := fails[0].Replay(func(p []byte) error {
		if len(p) > 0 && p[0] == recPending {
			found = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("no pending record reached the journal after the heal")
	}
}

// TestAvailableCountsAndContinues: the same blanket journal failure under
// Policy: Available must not cost a single receipt — errors are counted,
// service continues from memory (the pre-policy behaviour).
func TestAvailableCountsAndContinues(t *testing.T) {
	c, mems := strictCluster(t, journal.PolicyAvailable, nil)
	for _, m := range mems {
		m.SetAppendError(errInjected)
	}
	r, err := c.simVote(1, ballot.PartA, 0, 0)
	if err != nil {
		t.Fatalf("available node refused service on journal failure: %v", err)
	}
	if !bytes.Equal(r, c.expectedReceipt(1, ballot.PartA, 0)) {
		t.Fatal("wrong receipt")
	}
	s := c.node(0).Metrics()
	if s.JournalErrors == 0 {
		t.Fatal("journal errors were not counted")
	}
	if s.StrictRefusals != 0 {
		t.Fatal("available node recorded strict refusals")
	}
}

// TestStrictLateEndorseReplaysToSameState pins the install-before-append
// rule for the endorsement record on the one interleaving that used to
// break it: a node is bound to a code by a peer's VOTE_P without ever
// having seen the ENDORSE (the responder's link to it was down), and an
// ENDORSE for that code arrives afterwards. A Strict node journals the
// endorsement before it signs, so the duty must be in memory too — or the
// replayed incarnation holds an endorsed code the stopped one did not.
func TestStrictLateEndorseReplaysToSameState(t *testing.T) {
	const late = 3
	c := newSimClusterJ(t, 1, nil, 2, 4,
		transport.LinkProfile{Latency: 200 * time.Microsecond}, rawStack,
		journalDirs(t, 4), journal.Options{Policy: journal.PolicyStrict})
	code := mustCode(t, c, 1, ballot.PartA, 0)

	// Responder 0 cannot reach the late node: it certifies with nodes 1 and
	// 2, whose VOTE_Ps then bind the late node.
	c.Partition(0, late, true)
	if _, err := c.simVote(1, ballot.PartA, 0, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		st, used := c.node(late).BallotStatus(1)
		return st == Voted && bytes.Equal(used, code)
	})
	c.Partition(0, late, false)
	if st := c.node(late).peekState(1); st.endorsedCode != nil {
		t.Fatal("test premise broken: the late node saw an ENDORSE before its VOTE_P")
	}

	// The late ENDORSE (a second responder asking for the same code).
	c.node(late).onEndorse(1, &wire.Endorse{Serial: 1, Code: code})
	if st := c.node(late).peekState(1); !bytes.Equal(st.endorsedCode, code) || !st.endorsedDurable {
		t.Fatal("late ENDORSE was journaled without installing the endorsed code")
	}

	old := c.node(late)
	c.StopNode(late)
	want := old.StateHash()
	c.RestartNode(late)
	if got := c.node(late).StateHash(); got != want {
		t.Fatal("replayed state differs from the stopped incarnation's after a late ENDORSE")
	}
}

package bb

import (
	"math/big"
	"sync"
	"testing"
	"time"

	"ddemos/internal/ea"
	"ddemos/internal/journal"
	"ddemos/internal/vc"
)

var (
	fuzzInitOnce sync.Once
	fuzzInit     *ea.BBInit
	fuzzInitErr  error
)

// fuzzBBInit builds one tiny election's BB init data, shared across fuzz
// iterations (EA setup does real EC math; doing it per input would starve
// the fuzzer).
func fuzzBBInit(tb testing.TB) *ea.BBInit {
	tb.Helper()
	fuzzInitOnce.Do(func() {
		start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
		data, err := ea.Setup(ea.Params{
			ElectionID:  "bb-journal-fuzz",
			Options:     []string{"x", "y"},
			NumBallots:  1,
			NumVC:       4,
			NumBB:       1,
			NumTrustees: 1,
			VotingStart: start,
			VotingEnd:   start.Add(time.Hour),
			Seed:        []byte("bb-journal-fuzz"),
		})
		if err != nil {
			fuzzInitErr = err
			return
		}
		fuzzInit = data.BB
	})
	if fuzzInitErr != nil {
		tb.Fatal(fuzzInitErr)
	}
	return fuzzInit
}

// FuzzBBJournalReplay feeds arbitrary bytes through the journal replay path.
// The bar is no-panic: a record that fails structural validation must be
// refused with an error (a poisoned directory aborts recovery loudly), never
// crash the process or install state that later panics a combine attempt.
func FuzzBBJournalReplay(f *testing.F) {
	fuzzBBInit(f) // fail fast if setup is broken
	post := &TrusteePost{
		Trustee:    0,
		ShareIndex: 1,
		TallyMs:    []*big.Int{big.NewInt(1), big.NewInt(2)},
		TallyRs:    []*big.Int{big.NewInt(3), big.NewInt(4)},
	}
	postRec, err := encBBPost(post)
	if err != nil {
		f.Fatal(err)
	}
	resRec, err := encBBResult(&Result{
		Counts:  []int64{1, 0},
		TallyMs: []*big.Int{big.NewInt(1), big.NewInt(0)},
		TallyRs: []*big.Int{big.NewInt(2), big.NewInt(0)},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encBBSet(0, []vc.VotedBallot{{Serial: 1, Code: []byte("code")}}))
	f.Add(encBBShare(1, big.NewInt(42)))
	f.Add(encBBBlame(0))
	f.Add(postRec)
	f.Add(resRec)
	f.Add([]byte{})
	f.Add([]byte{bbRecResult, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1})

	f.Fuzz(func(t *testing.T, rec []byte) {
		node, err := NewNode(fuzzBBInit(t))
		if err != nil {
			t.Fatal(err)
		}
		mem := journal.NewMemJournal(journal.Options{})
		if err := mem.Append([][]byte{rec}); err != nil {
			t.Fatal(err)
		}
		if err := node.RecoverBackend(mem, journal.PolicyAvailable); err != nil {
			return // refused recovery is the correct response to garbage
		}
		// Accepted records must leave a node whose state round-trips: the
		// fixpoint property may not depend on which bytes got us here.
		h1 := node.StateHash()
		second, err := NewNode(fuzzBBInit(t))
		if err != nil {
			t.Fatal(err)
		}
		replay := journal.NewMemJournal(journal.Options{})
		if err := replay.Append(node.laneState(0, 1)); err != nil {
			t.Fatal(err)
		}
		if err := second.RecoverBackend(replay, journal.PolicyAvailable); err != nil {
			t.Fatalf("state serialized by a node failed to replay: %v", err)
		}
		if second.StateHash() != h1 {
			t.Fatal("serialize/replay is not a StateHash fixpoint")
		}
		_ = node.Close()
		_ = second.Close()
	})
}

package bb

import (
	"fmt"
	"math/big"
	"strings"
	"sync"
	"testing"
	"time"

	"ddemos/internal/ea"
	"ddemos/internal/journal"
	"ddemos/internal/vc"
)

var (
	fuzzInitOnce sync.Once
	fuzzData     *ea.ElectionData
	fuzzInitErr  error
)

// FuzzElectionParams is the one-ballot election the journal and board fuzz
// targets run against; the corpus generator (TestRegenerateFuzzCorpus)
// runs it end to end for real records and artefacts.
var FuzzElectionParams = ea.Params{
	ElectionID:  "bb-journal-fuzz",
	Options:     []string{"x", "y"},
	NumBallots:  1,
	NumVC:       4,
	NumBB:       1,
	NumTrustees: 1,
	VotingStart: time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC),
	VotingEnd:   time.Date(2026, 6, 10, 9, 0, 0, 0, time.UTC),
	Seed:        []byte("bb-journal-fuzz"),
}

// fuzzElection builds the fuzz election once, shared across fuzz iterations
// (EA setup does real EC math; doing it per input would starve the fuzzer).
func fuzzElection(tb testing.TB) *ea.ElectionData {
	tb.Helper()
	fuzzInitOnce.Do(func() { fuzzData, fuzzInitErr = ea.Setup(FuzzElectionParams) })
	if fuzzInitErr != nil {
		tb.Fatal(fuzzInitErr)
	}
	return fuzzData
}

// fuzzBBInit is the fuzz election's BB init data.
func fuzzBBInit(tb testing.TB) *ea.BBInit { return fuzzElection(tb).BB }

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
	result := &Result{
		Counts:  []int64{1, 0},
		TallyMs: []*big.Int{big.NewInt(1), big.NewInt(0)},
		TallyRs: []*big.Int{big.NewInt(2), big.NewInt(0)},
	}
	set := []vc.VotedBallot{{Serial: 1, Code: []byte("code")}}
	f.Add(append(journal.Header(bbRecSet, 0), EncodeVoteSet(set)...))
	f.Add(append(journal.Header(bbRecShare, 1), EncodeMskShare(ea.MskShare{Index: 1, Value: big.NewInt(42)})...))
	f.Add(encBBBlame(0))
	f.Add(append(journal.Header(bbRecPost, 0), EncodeTrusteePost(post)...))
	f.Add(append(journal.Header(bbRecResult, 0), EncodeResult(result)...))
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

// TestBBJournalRefusesRetiredKinds pins the journal-kind break: a directory
// holding the share (0x12), gob post (0x13) or gob result (0x15) records of
// the board before its canonical encoding fails recovery loudly, naming the
// kind, with no fallback decoder.
func TestBBJournalRefusesRetiredKinds(t *testing.T) {
	for _, kind := range []byte{0x12, 0x13, 0x15} {
		node, err := NewNode(fuzzBBInit(t))
		if err != nil {
			t.Fatal(err)
		}
		mem := journal.NewMemJournal(journal.Options{})
		gob := []byte("gob")
		if err := mem.Append([][]byte{append(journal.Header(kind, 0), encode(nil, &gob, anyBytes)...)}); err != nil {
			t.Fatal(err)
		}
		err = node.RecoverBackend(mem, journal.PolicyAvailable)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%#x", kind)) {
			t.Fatalf("kind %#x: recovery error = %v, want one naming the kind", kind, err)
		}
	}
}

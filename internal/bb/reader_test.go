package bb_test

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"ddemos/internal/bb"
	ddcore "ddemos/internal/core"
	"ddemos/internal/httpapi"
)

// down is a replica that answers nothing.
var down = bb.ReadFunc(func(bb.Kind) ([]byte, error) { return nil, errors.New("down") })

// servedOverHTTP publishes a small election and returns one replica both
// in-process and as the HTTP client view of the same node.
func servedOverHTTP(t *testing.T) (local *bb.Node, remote bb.API) {
	t.Helper()
	cluster, _ := pipeline(t, []int{0, 0, 1}, ddcore.Options{})
	srv := httptest.NewServer(httpapi.BBHandler(cluster.BBs[0]))
	t.Cleanup(srv.Close)
	return cluster.BBs[0], (&httpapi.BBClient{BaseURL: srv.URL}).API(context.Background())
}

// TestReaderMajorityAcrossHTTPBoundary: a node's bytes are the bytes the
// same node serves over HTTP, for every artefact — so one in-process reply
// and one HTTP reply agree, and with the third replica down they are the
// fb+1 = 2 a majority needs.
func TestReaderMajorityAcrossHTTPBoundary(t *testing.T) {
	local, remote := servedOverHTTP(t)
	for kind := bb.KindManifest; kind <= bb.KindResult; kind++ {
		want, err := local.Read(kind)
		if err != nil {
			t.Fatal(err)
		}
		got, err := remote.Read(kind)
		if err != nil {
			t.Fatalf("%v over HTTP: %v", kind, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: the node serves other bytes over HTTP than it holds", kind)
		}
	}
	got, err := bb.NewReader([]bb.API{local, remote, down}).Result()
	if err != nil {
		t.Fatalf("majority read across the HTTP boundary: %v", err)
	}
	if got.Counts[0] != 2 || got.Counts[1] != 1 {
		t.Fatalf("counts = %v", got.Counts)
	}

	// Genuinely different replies must still fail to reach a majority.
	got.Counts[0], got.Counts[1] = got.Counts[1], got.Counts[0]
	forged := bb.EncodeResult(got)
	liar := bb.ReadFunc(func(bb.Kind) ([]byte, error) { return forged, nil })
	if _, err := bb.NewReader([]bb.API{local, liar, down}).Result(); !errors.Is(err, bb.ErrNoMajority) {
		t.Fatalf("divergent replies: err = %v, want ErrNoMajority", err)
	}
}

// TestReaderVoteSetAcrossHTTPBoundary: the same for the vote set, the
// artefact every voter reads.
func TestReaderVoteSetAcrossHTTPBoundary(t *testing.T) {
	local, remote := servedOverHTTP(t)
	want, err := local.Read(bb.KindVoteSet)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := remote.Read(bb.KindVoteSet); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("vote set over HTTP: err = %v, equal = %v", err, bytes.Equal(got, want))
	}
	set, err := bb.NewReader([]bb.API{down, remote, local}).VoteSet()
	if err != nil {
		t.Fatalf("majority vote-set read: %v", err)
	}
	if len(set) != 3 || set[2].Serial != 3 {
		t.Fatalf("got %v", set)
	}
}

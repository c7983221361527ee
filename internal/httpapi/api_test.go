package httpapi

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ddemos/internal/bb"
	"ddemos/internal/core"
	"ddemos/internal/ea"
	"ddemos/internal/sim"
	"ddemos/internal/vc"
)

// newTestCluster builds a small running election and HTTP servers for one
// VC and one BB node — the fixture for the API-contract tests.
func newTestCluster(t *testing.T) (*ea.ElectionData, *core.Cluster, *httptest.Server, *httptest.Server) {
	t.Helper()
	start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	data, err := ea.Setup(ea.Params{
		ElectionID:  "api-test",
		Options:     []string{"yes", "no"},
		NumBallots:  4,
		NumVC:       4,
		NumBB:       3,
		NumTrustees: 3,
		VotingStart: start,
		VotingEnd:   start.Add(time.Hour),
		Seed:        []byte("api-test"),
	})
	if err != nil {
		t.Fatal(err)
	}
	drv := sim.New(sim.Config{Start: start.Add(time.Minute)})
	cluster, err := core.NewCluster(data, core.Options{Sim: drv})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Stop)
	t.Cleanup(drv.Spin())

	vcSrv := httptest.NewServer(VCHandler(cluster.VCs[0]))
	t.Cleanup(vcSrv.Close)
	bbSrv := httptest.NewServer(BBHandler(cluster.BBs[0]))
	t.Cleanup(bbSrv.Close)
	return data, cluster, vcSrv, bbSrv
}

// decodeEnvelope reads an error response's body as the raw JSON envelope.
func decodeEnvelope(t *testing.T, resp *http.Response) (env ErrorEnvelope) {
	t.Helper()
	defer func() { _ = resp.Body.Close() }()
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error body is not a JSON envelope: %v", err)
	}
	return env
}

// TestErrorEnvelopeRoundTrip pins the uniform error contract on both
// handlers: every error path emits {code, message}, and the clients surface
// it as a typed *APIError whose code the caller can branch on.
func TestErrorEnvelopeRoundTrip(t *testing.T) {
	_, _, vcSrv, bbSrv := newTestCluster(t)
	ctx := context.Background()

	// VC: malformed JSON → bad_request, on the wire.
	resp, err := http.Post(vcSrv.URL+"/v1/vote", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed vote status = %d", resp.StatusCode)
	}
	env := decodeEnvelope(t, resp)
	if env.Code != CodeBadRequest || env.Message == "" {
		t.Fatalf("envelope = %+v", env)
	}

	// VC: protocol-level rejection → typed vote_rejected through the client.
	vcClient := &VCClient{BaseURL: vcSrv.URL}
	_, err = vcClient.SubmitVote(ctx, 999, []byte("no-such-code"))
	if !HasCode(err, CodeVoteRejected) {
		t.Fatalf("unknown serial error = %v", err)
	}
	if ae, ok := AsAPIError(err); !ok || ae.Status != http.StatusConflict || ae.Message == "" {
		t.Fatalf("typed error = %+v", err)
	}

	// BB: unpublished data → typed not_found through the client.
	bbClient := &BBClient{BaseURL: bbSrv.URL}
	if _, err := bbClient.Result(ctx); !HasCode(err, CodeNotFound) {
		t.Fatalf("unpublished result error = %v", err)
	}

	// BB: undecodable submission body → bad_request; a decodable one the
	// node refuses (bad signature) → bad_submission.
	resp, err = http.Post(bbSrv.URL+"/v1/submit/voteset", "application/octet-stream",
		strings.NewReader("not gob at all"))
	if err != nil {
		t.Fatal(err)
	}
	if env := decodeEnvelope(t, resp); env.Code != CodeBadRequest {
		t.Fatalf("garbage gob envelope = %+v", env)
	}
	err = bbClient.SubmitVoteSet(ctx, 0, nil, []byte("forged signature"))
	if !HasCode(err, CodeBadSubmission) {
		t.Fatalf("forged vote set error = %v", err)
	}

	// Non-envelope error bodies (proxies, legacy servers) stay debuggable
	// under CodeUnknown with the body preserved.
	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain text failure", http.StatusBadGateway)
	}))
	defer legacy.Close()
	_, err = (&BBClient{BaseURL: legacy.URL}).Manifest(ctx)
	ae, ok := AsAPIError(err)
	if !ok || ae.Code != CodeUnknown || ae.Status != http.StatusBadGateway ||
		!strings.Contains(ae.Message, "plain text failure") {
		t.Fatalf("legacy body error = %v", err)
	}
}

// TestContextCancellationEveryClientMethod drives every client method
// against a handler that never answers: the caller's context deadline must
// abort each call — no method may fall back to a transport-level wait.
func TestContextCancellationEveryClientMethod(t *testing.T) {
	release := make(chan struct{})
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select { // hold the request open until the client gives up
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer stall.Close()
	defer close(release) // unblock straggling handlers so Close can drain

	vcClient := &VCClient{BaseURL: stall.URL}
	bbClient := &BBClient{BaseURL: stall.URL}
	calls := map[string]func(ctx context.Context) error{
		"VCClient.SubmitVote": func(ctx context.Context) error {
			_, err := vcClient.SubmitVote(ctx, 1, []byte("code"))
			return err
		},
		"VCClient.Metrics":  func(ctx context.Context) error { _, err := vcClient.Metrics(ctx); return err },
		"BBClient.Manifest": func(ctx context.Context) error { _, err := bbClient.Manifest(ctx); return err },
		"BBClient.Init":     func(ctx context.Context) error { _, err := bbClient.Init(ctx); return err },
		"BBClient.VoteSet":  func(ctx context.Context) error { _, err := bbClient.VoteSet(ctx); return err },
		"BBClient.Cast":     func(ctx context.Context) error { _, err := bbClient.Cast(ctx); return err },
		"BBClient.Result":   func(ctx context.Context) error { _, err := bbClient.Result(ctx); return err },
		"BBClient.Metrics":  func(ctx context.Context) error { _, err := bbClient.Metrics(ctx); return err },
		"BBClient.SubmitVoteSet": func(ctx context.Context) error {
			return bbClient.SubmitVoteSet(ctx, 0, nil, nil)
		},
		"BBClient.SubmitMskShare": func(ctx context.Context) error {
			return bbClient.SubmitMskShare(ctx, ea.MskShare{})
		},
		"BBClient.SubmitTrusteePost": func(ctx context.Context) error {
			return bbClient.SubmitTrusteePost(ctx, &bb.TrusteePost{})
		},
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			start := time.Now()
			err := call(ctx)
			if err == nil {
				t.Fatal("stalled request must fail")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("error does not carry the context deadline: %v", err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("cancellation took %v", elapsed)
			}
		})
	}

	// The bound bb.API view inherits its context's cancellation too.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := bbClient.API(ctx).Manifest(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bound API view error = %v", err)
	}
}

// TestVersionedRoutesOnly pins the route contract: voting and both roles'
// JSON metrics live under /v1/, and the unversioned paths the first release
// shipped are gone — they answer 404 with the uniform envelope, like any
// other unknown path.
func TestVersionedRoutesOnly(t *testing.T) {
	data, _, vcSrv, bbSrv := newTestCluster(t)
	ctx := context.Background()

	// A plain POST /v1/vote returns the receipt the ballot carries.
	b := data.Ballots[0]
	body, _ := json.Marshal(VoteRequest{Serial: b.Serial, Code: ballotCodeHex(b.Parts[0].Lines[0].VoteCode)})
	resp, err := http.Post(vcSrv.URL+"/v1/vote", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/vote status = %d", resp.StatusCode)
	}
	var vr VoteResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if vr.Receipt != ballotCodeHex(b.Parts[0].Lines[0].Receipt) {
		t.Fatalf("receipt = %q", vr.Receipt)
	}

	// Both roles serve the same JSON scrape format under /v1/metrics.
	vcClient := &VCClient{BaseURL: vcSrv.URL}
	if _, err := vcClient.Metrics(ctx); err != nil {
		t.Fatalf("vc /v1/metrics: %v", err)
	}
	_, bbMetricsBody := rawGet(t, bbSrv.URL+"/v1/metrics")
	var snap bb.Snapshot
	if err := json.Unmarshal(bbMetricsBody, &snap); err != nil {
		t.Fatalf("bb /v1/metrics is not JSON: %v", err)
	}
	_, vcMetricsBody := rawGet(t, vcSrv.URL+"/v1/metrics")
	var vcSnap vc.Snapshot
	if err := json.Unmarshal(vcMetricsBody, &vcSnap); err != nil {
		t.Fatalf("vc /v1/metrics is not JSON: %v", err)
	}
	if vcSnap.VotesAccepted < 1 {
		t.Fatalf("vc snapshot did not count the vote: %+v", vcSnap)
	}
	for _, counter := range []string{`"CertSigVerifies"`, `"CertSigMemoHits"`} {
		if !bytes.Contains(vcMetricsBody, []byte(counter)) {
			t.Fatalf("vc /v1/metrics does not carry %s: %s", counter, vcMetricsBody)
		}
	}

	// The unversioned aliases are gone: 404, uniform envelope.
	for _, url := range []string{vcSrv.URL + "/vote", bbSrv.URL + "/manifest", bbSrv.URL + "/metrics"} {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("POST %s status = %d, want 404", url, resp.StatusCode)
		}
		if env := decodeEnvelope(t, resp); env.Code != CodeNotFound || env.Message == "" {
			t.Fatalf("POST %s envelope = %+v", url, env)
		}
	}
}

func rawGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func ballotCodeHex(b []byte) string { return hex.EncodeToString(b) }

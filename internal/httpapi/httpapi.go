// Package httpapi provides the HTTP servers and clients for multi-process
// deployments: the VC voter-facing endpoint (a plain POST — voters need no
// special software, §I) and the BB read/write API over the board encoding of
// internal/bb.
//
// # API versioning
//
// Every route lives under /v1/ and nowhere else: any other path answers 404
// with the error envelope. GET /v1/metrics serves JSON on both roles, so
// operators and the load generator scrape VC and BB nodes uniformly.
//
// Errors are a uniform JSON envelope {code, message} (ErrorEnvelope) on
// every endpoint, unknown paths included; clients surface them as typed
// *APIError values and branch on the code, never on message text.
package httpapi

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"ddemos/internal/bb"
	"ddemos/internal/vc"
)

// Server timeouts every ddemos HTTP server runs with (NewServer). A BB
// artefact's transfer gets a deadline sized to it instead (transferBudget),
// so these only bound what is small: headers, votes, metrics, idle
// keep-alives.
const (
	ReadHeaderTimeout = 10 * time.Second
	ReadTimeout       = 30 * time.Second
	WriteTimeout      = 30 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// A BB body or reply may take transferGrace plus its size at
// minTransferRate; a peer trickling slower is cut off.
const (
	transferGrace   = 2 * time.Second
	minTransferRate = 64 << 10 // bytes per second
)

func transferBudget(n int64) time.Duration {
	return transferGrace + time.Duration(n)*time.Second/minTransferRate
}

// NewServer returns a server for h on addr with the package's timeouts.
func NewServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		ReadTimeout:       ReadTimeout,
		WriteTimeout:      WriteTimeout,
		IdleTimeout:       IdleTimeout,
	}
}

// newMux returns a mux whose unmatched paths answer with the error envelope
// instead of net/http's plain-text 404.
func newMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, CodeNotFound, "no such route: "+r.Method+" "+r.URL.Path)
	})
	return mux
}

// --- VC voter endpoint -----------------------------------------------------

// VoteRequest is the voter-facing JSON body: a serial number and a hex vote
// code, nothing else (no cryptography client-side).
type VoteRequest struct {
	Serial uint64 `json:"serial"`
	Code   string `json:"code"`
}

// VoteResponse returns the hex receipt. Errors arrive as an ErrorEnvelope
// with a non-2xx status instead.
type VoteResponse struct {
	Receipt string `json:"receipt"`
}

// VCHandler serves the public API of a VC node: POST /v1/vote for voters
// and GET /v1/metrics for operators and the load harness (journal, store
// and per-phase timing counters from vc.Snapshot, as JSON — parity with
// the BB handler, so both roles scrape uniformly).
func VCHandler(node *vc.Node) http.Handler {
	mux := newMux()
	mux.HandleFunc("POST /v1/vote", func(w http.ResponseWriter, r *http.Request) {
		var req VoteRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "malformed request")
			return
		}
		code, err := hex.DecodeString(req.Code)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "malformed vote code")
			return
		}
		receipt, err := node.SubmitVote(r.Context(), req.Serial, code)
		if err != nil {
			writeError(w, http.StatusConflict, CodeVoteRejected, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, VoteResponse{Receipt: hex.EncodeToString(receipt)})
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		s := node.Metrics()
		writeJSON(w, http.StatusOK, &s)
	})
	return mux
}

// VCClient is a voter.Service over HTTP, built on the shared client core:
// context on every method, the two-deadline Timeouts model, and the
// process-shared tuned transport (unless HTTP or Timeouts.Dial overrides
// it).
type VCClient struct {
	BaseURL string
	// HTTP overrides the transport entirely (Timeouts.Dial then unused).
	HTTP *http.Client
	// Timeouts tunes dial vs whole-request deadlines (zero = defaults:
	// DefaultDialTimeout dial on the shared pool, 30s request).
	Timeouts Timeouts

	core clientCore
}

const vcDefaultRequest = 30 * time.Second

// SubmitVote implements voter.Service.
func (c *VCClient) SubmitVote(ctx context.Context, serial uint64, code []byte) ([]byte, error) {
	body, err := json.Marshal(VoteRequest{Serial: serial, Code: hex.EncodeToString(code)})
	if err != nil {
		return nil, err
	}
	resp, cancel, err := c.core.do(ctx, c.HTTP, c.Timeouts, vcDefaultRequest,
		http.MethodPost, c.BaseURL+"/v1/vote", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("httpapi: vote: %w", err)
	}
	defer cancel()
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeAPIError(resp)
	}
	var vr VoteResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&vr); err != nil {
		return nil, fmt.Errorf("httpapi: vote response: %w", err)
	}
	return hex.DecodeString(vr.Receipt)
}

// Metrics fetches the node's operational counters from GET /v1/metrics.
func (c *VCClient) Metrics(ctx context.Context) (*vc.Snapshot, error) {
	var s vc.Snapshot
	if err := c.core.getJSON(ctx, c.HTTP, c.Timeouts, vcDefaultRequest, c.BaseURL+"/v1/metrics", &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// --- BB read/write API -------------------------------------------------------

// BBHandler serves a BB node: GET /v1/<kind> writes the node's encoding of
// each artefact verbatim, POST /v1/submit/<kind> hands the body to
// Node.Submit (the submissions carry their own signatures; the node
// verifies them, §III-G), and GET /v1/metrics serves JSON. A submission
// body is capped at the largest an honest submitter sends in this election
// (bb.SubmitLimit) and must arrive within its transfer budget.
func BBHandler(node *bb.Node) http.Handler {
	mux := newMux()
	for kind := bb.KindManifest; kind <= bb.KindResult; kind++ {
		mux.HandleFunc("GET /v1/"+kind.String(), func(w http.ResponseWriter, r *http.Request) {
			b, err := node.Read(kind)
			if err != nil {
				writeError(w, http.StatusNotFound, CodeNotFound, err.Error())
				return
			}
			_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(transferBudget(int64(len(b)))))
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.Itoa(len(b)))
			_, _ = w.Write(b)
		})
	}
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		s := node.Metrics()
		writeJSON(w, http.StatusOK, &s)
	})
	man, _ := node.Manifest()
	for kind := bb.KindSetSubmission; kind <= bb.KindTrusteePost; kind++ {
		limit := bb.SubmitLimit(&man, kind)
		mux.HandleFunc("POST /v1/"+kind.String(), func(w http.ResponseWriter, r *http.Request) {
			_ = http.NewResponseController(w).SetReadDeadline(time.Now().Add(transferBudget(limit)))
			body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
			if err != nil {
				status := http.StatusBadRequest
				var tooBig *http.MaxBytesError
				if errors.As(err, &tooBig) {
					status = http.StatusRequestEntityTooLarge
				}
				writeError(w, status, CodeBadRequest, err.Error())
				return
			}
			if err := node.Submit(kind, body); err != nil {
				code := CodeBadSubmission
				if errors.Is(err, bb.ErrMalformed) {
					code = CodeBadRequest
				}
				writeError(w, http.StatusBadRequest, code, err.Error())
				return
			}
			w.WriteHeader(http.StatusNoContent)
		})
	}
	return mux
}

// BBClient is the BB node client over HTTP, built on the shared client
// core: every method takes a context.Context, with the two-deadline
// Timeouts model and the process-shared tuned transport. The context-free
// bb.API view the majority reader consumes is obtained with API(ctx), and
// the bb.Submitter view writers use with Submitter(ctx).
type BBClient struct {
	BaseURL string
	// HTTP overrides the transport entirely (Timeouts.Dial then unused).
	HTTP *http.Client
	// Timeouts tunes dial vs whole-request deadlines (zero = defaults:
	// DefaultDialTimeout dial on the shared pool, 60s request).
	Timeouts Timeouts

	core clientCore
}

const bbDefaultRequest = 60 * time.Second

// Read fetches the bytes a replica serves for one artefact. They are not
// parsed here: bb.Reader compares replicas by digest and decodes the winner.
func (c *BBClient) Read(ctx context.Context, kind bb.Kind) ([]byte, error) {
	return c.core.get(ctx, c.HTTP, c.Timeouts, bbDefaultRequest, c.BaseURL+"/v1/"+kind.String(), math.MaxInt64)
}

// API binds ctx to the client and returns the context-free bb.API view
// that bb.Reader consumes. The bound context caps every call made through
// the view.
func (c *BBClient) API(ctx context.Context) bb.API {
	return bb.ReadFunc(func(kind bb.Kind) ([]byte, error) { return c.Read(ctx, kind) })
}

// Metrics fetches the node's operational counters (publish-phase ingress
// and combine statistics) from GET /v1/metrics. Not part of bb.API: it is
// operator tooling, not election data.
func (c *BBClient) Metrics(ctx context.Context) (*bb.Snapshot, error) {
	var s bb.Snapshot
	if err := c.core.getJSON(ctx, c.HTTP, c.Timeouts, bbDefaultRequest, c.BaseURL+"/v1/metrics", &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Submitter binds ctx to the client and returns the context-free
// bb.Submitter view that bb.Push and trustee.PublishTo write through,
// mirroring API. The bound context caps every call made through the view.
func (c *BBClient) Submitter(ctx context.Context) bb.Submitter {
	return bb.SubmitFunc(func(kind bb.Kind, body []byte) error { return c.submit(ctx, kind, body) })
}

// submit POSTs an encoded submission and expects a 2xx; anything else
// decodes the error envelope. A kind that is not a submission, and a body
// the node refused as one, fail with bb.ErrBadSubmission as they do on an
// in-process node, so writers see one error whichever side of HTTP the
// board is on.
func (c *BBClient) submit(ctx context.Context, kind bb.Kind, body []byte) error {
	if kind < bb.KindSetSubmission || kind > bb.KindTrusteePost {
		return fmt.Errorf("%w: %v is not a submission", bb.ErrBadSubmission, kind)
	}
	url := c.BaseURL + "/v1/" + kind.String()
	resp, cancel, err := c.core.do(ctx, c.HTTP, c.Timeouts, bbDefaultRequest,
		http.MethodPost, url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("httpapi: post %s: %w", url, err)
	}
	defer cancel()
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode >= 300 {
		err := decodeAPIError(resp)
		if HasCode(err, CodeBadSubmission) {
			return fmt.Errorf("%w: %w", bb.ErrBadSubmission, err)
		}
		return err
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Package httpapi provides the HTTP servers and clients for multi-process
// deployments: the VC voter-facing endpoint (a plain POST — voters need no
// special software, §I), the BB read/write API, and the gob encoding of
// initialization payloads the ddemos-ea tool writes to disk.
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
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"ddemos/internal/bb"
	"ddemos/internal/ea"
	"ddemos/internal/vc"
)

// WriteGobFile serializes v to path atomically: the value is encoded to a
// temp file in the same directory, fsynced, and renamed over path (then the
// directory is synced), so a crash or full disk mid-write can never leave a
// torn payload behind — either the old file survives intact or the new one
// is complete. Same pattern as store.WriteWALFile.
func WriteGobFile(path string, v any) error {
	w, err := CreateGobStream(path)
	if err != nil {
		return err
	}
	if err := w.Encode(v); err != nil {
		w.Abort()
		return err
	}
	return w.Close()
}

// ReadGobFile deserializes path into v.
func ReadGobFile(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("httpapi: open %s: %w", path, err)
	}
	defer func() { _ = f.Close() }()
	if err := gob.NewDecoder(f).Decode(v); err != nil {
		return fmt.Errorf("httpapi: decode %s: %w", path, err)
	}
	return nil
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

// BBHandler serves a BB node: gob-encoded reads on public paths, verified
// writes (the submissions carry their own signatures; the BB node verifies
// them, §III-G), and JSON metrics on GET /v1/metrics.
func BBHandler(node *bb.Node) http.Handler {
	mux := newMux()
	serve := func(path string, get func() (any, error)) {
		mux.HandleFunc("GET /v1"+path, func(w http.ResponseWriter, r *http.Request) {
			v, err := get()
			if err != nil {
				writeError(w, http.StatusNotFound, CodeNotFound, err.Error())
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			_ = gob.NewEncoder(w).Encode(v)
		})
	}
	serve("/manifest", func() (any, error) { m, err := node.Manifest(); return &m, err })
	serve("/init", func() (any, error) { return node.Init() })
	serve("/voteset", func() (any, error) { return node.VoteSet() })
	serve("/cast", func() (any, error) { return node.Cast() })
	serve("/result", func() (any, error) { return node.Result() })

	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		s := node.Metrics()
		writeJSON(w, http.StatusOK, &s)
	})

	submit := func(path string, accept func(r *http.Request) error) {
		mux.HandleFunc("POST /v1"+path, func(w http.ResponseWriter, r *http.Request) {
			if err := accept(r); err != nil {
				code, status := CodeBadSubmission, http.StatusBadRequest
				if _, ok := err.(gobDecodeError); ok {
					code = CodeBadRequest
				}
				writeError(w, status, code, err.Error())
				return
			}
			w.WriteHeader(http.StatusNoContent)
		})
	}
	submit("/submit/voteset", func(r *http.Request) error {
		var sub VoteSetSubmission
		if err := gob.NewDecoder(r.Body).Decode(&sub); err != nil {
			return gobDecodeError{err}
		}
		return node.SubmitVoteSet(sub.VCIndex, sub.Set, sub.Sig)
	})
	submit("/submit/mskshare", func(r *http.Request) error {
		var share ea.MskShare
		if err := gob.NewDecoder(r.Body).Decode(&share); err != nil {
			return gobDecodeError{err}
		}
		return node.SubmitMskShare(share)
	})
	submit("/submit/trusteepost", func(r *http.Request) error {
		var post bb.TrusteePost
		if err := gob.NewDecoder(r.Body).Decode(&post); err != nil {
			return gobDecodeError{err}
		}
		return node.SubmitTrusteePost(&post)
	})
	return mux
}

// gobDecodeError marks an undecodable submission body, so the handler maps
// it to CodeBadRequest instead of CodeBadSubmission.
type gobDecodeError struct{ err error }

func (e gobDecodeError) Error() string { return e.err.Error() }
func (e gobDecodeError) Unwrap() error { return e.err }

// VoteSetSubmission is the gob body of /v1/submit/voteset.
type VoteSetSubmission struct {
	VCIndex int
	Set     []vc.VotedBallot
	Sig     []byte
}

// BBClient is the BB node client over HTTP, built on the shared client
// core: every method takes a context.Context, with the two-deadline
// Timeouts model and the process-shared tuned transport. The context-free
// bb.API view the majority reader consumes is obtained with API(ctx).
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

func (c *BBClient) get(ctx context.Context, path string, v any) error {
	return c.core.getGob(ctx, c.HTTP, c.Timeouts, bbDefaultRequest, c.BaseURL+path, v)
}

func (c *BBClient) post(ctx context.Context, path string, v any) error {
	return c.core.postGob(ctx, c.HTTP, c.Timeouts, bbDefaultRequest, c.BaseURL+path, v)
}

// Manifest fetches the election manifest.
func (c *BBClient) Manifest(ctx context.Context) (ea.Manifest, error) {
	var m ea.Manifest
	err := c.get(ctx, "/v1/manifest", &m)
	return m, err
}

// Init fetches the BB initialization data.
func (c *BBClient) Init(ctx context.Context) (*ea.BBInit, error) {
	var v ea.BBInit
	if err := c.get(ctx, "/v1/init", &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// VoteSet fetches the agreed vote set.
func (c *BBClient) VoteSet(ctx context.Context) ([]vc.VotedBallot, error) {
	var v []vc.VotedBallot
	err := c.get(ctx, "/v1/voteset", &v)
	return v, err
}

// Cast fetches the published cast data.
func (c *BBClient) Cast(ctx context.Context) (*bb.CastData, error) {
	var v bb.CastData
	if err := c.get(ctx, "/v1/cast", &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// Result fetches the published result.
func (c *BBClient) Result(ctx context.Context) (*bb.Result, error) {
	var v bb.Result
	if err := c.get(ctx, "/v1/result", &v); err != nil {
		return nil, err
	}
	return &v, nil
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

// SubmitVoteSet pushes a VC node's final set.
func (c *BBClient) SubmitVoteSet(ctx context.Context, vcIndex int, set []vc.VotedBallot, sig []byte) error {
	return c.post(ctx, "/v1/submit/voteset", &VoteSetSubmission{VCIndex: vcIndex, Set: set, Sig: sig})
}

// SubmitMskShare pushes a VC node's master-key share.
func (c *BBClient) SubmitMskShare(ctx context.Context, share ea.MskShare) error {
	return c.post(ctx, "/v1/submit/mskshare", &share)
}

// SubmitTrusteePost pushes a trustee post.
func (c *BBClient) SubmitTrusteePost(ctx context.Context, post *bb.TrusteePost) error {
	return c.post(ctx, "/v1/submit/trusteepost", post)
}

// API binds ctx to the client and returns the context-free bb.API view
// that bb.Reader (and everything else written against bb.API) consumes.
// The bound context caps every call made through the view — the replacement
// for the removed Ctx field.
func (c *BBClient) API(ctx context.Context) bb.API { return &boundBB{c: c, ctx: ctx} }

// boundBB adapts BBClient's context-taking methods onto the context-free
// bb.API interface by carrying one bound context.
type boundBB struct {
	c   *BBClient
	ctx context.Context
}

var _ bb.API = (*boundBB)(nil)

func (b *boundBB) Manifest() (ea.Manifest, error)     { return b.c.Manifest(b.ctx) }
func (b *boundBB) Init() (*ea.BBInit, error)          { return b.c.Init(b.ctx) }
func (b *boundBB) VoteSet() ([]vc.VotedBallot, error) { return b.c.VoteSet(b.ctx) }
func (b *boundBB) Cast() (*bb.CastData, error)        { return b.c.Cast(b.ctx) }
func (b *boundBB) Result() (*bb.Result, error)        { return b.c.Result(b.ctx) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

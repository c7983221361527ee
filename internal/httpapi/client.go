package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// Timeouts separates connection establishment from whole-request deadlines.
// A recovering or restarting node should fail fast at dial time (so clients
// rotate to a live node) while still allowing a slow-but-progressing
// request its full budget; a single flat client timeout cannot express
// that, and retries against a dead node then pile up for the whole flat
// window.
type Timeouts struct {
	// Dial bounds TCP connection establishment (default DefaultDialTimeout).
	// Clients with the default dial timeout share one process-wide
	// connection pool; a custom Dial gets a private pool.
	Dial time.Duration
	// Request bounds the whole request including body (default 30s for VC
	// voting, 60s for BB reads); a caller context with an earlier deadline
	// wins.
	Request time.Duration
}

// DefaultDialTimeout bounds connection establishment for every client that
// does not pick its own; it doubles as the TLS handshake budget.
const DefaultDialTimeout = 3 * time.Second

// NewTransport returns the tuned *http.Transport all httpapi clients run
// on: keep-alives on, a deep idle pool per host (a load generator holding
// hundreds of in-flight votes against a handful of VC nodes must reuse
// connections, or it re-dials per call and exhausts ephemeral ports), and
// a dedicated dial timeout so the overall deadline can ride on each
// request's context instead of client.Timeout.
func NewTransport(dial time.Duration) *http.Transport {
	if dial <= 0 {
		dial = DefaultDialTimeout
	}
	return &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   dial,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout: dial,
		MaxIdleConns:        0, // no global cap; per-host governs
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     90 * time.Second,
	}
}

// NewPooledClient wraps NewTransport in an *http.Client suitable for
// sharing across many VCClient/BBClient values (set it as their HTTP
// field): one connection pool for the whole process.
func NewPooledClient(dial time.Duration) *http.Client {
	return &http.Client{Transport: NewTransport(dial)}
}

// sharedClient is the process-wide default pool. Every client constructed
// with zero Timeouts.Dial and nil HTTP lands here, so a process full of
// per-URL client values still holds exactly one transport.
var (
	sharedOnce   sync.Once
	sharedPooled *http.Client
)

func sharedClient() *http.Client {
	sharedOnce.Do(func() { sharedPooled = NewPooledClient(DefaultDialTimeout) })
	return sharedPooled
}

// clientCore is the shared plumbing under VCClient and BBClient: transport
// selection, request-context deadlines, and the uniform error-envelope
// decode. The zero value is ready to use.
type clientCore struct {
	once   sync.Once
	client *http.Client
}

// pick resolves the *http.Client for a request: an explicit override wins,
// the package-shared pool serves the default dial timeout, and a custom
// dial timeout gets a lazily-built private pool (cached per client value).
func (cc *clientCore) pick(override *http.Client, dial time.Duration) *http.Client {
	if override != nil {
		return override
	}
	if dial <= 0 || dial == DefaultDialTimeout {
		return sharedClient()
	}
	cc.once.Do(func() { cc.client = NewPooledClient(dial) })
	return cc.client
}

// requestCtx bounds ctx by the request timeout (an earlier caller deadline
// wins).
func requestCtx(ctx context.Context, request time.Duration) (context.Context, context.CancelFunc) {
	if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) < request {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, request)
}

// do issues one request with the two-deadline model and returns the
// response; the returned cancel must be called after the body is consumed.
func (cc *clientCore) do(ctx context.Context, override *http.Client, to Timeouts, defaultRequest time.Duration,
	method, url, contentType string, body io.Reader) (*http.Response, context.CancelFunc, error) {
	request := to.Request
	if request <= 0 {
		request = defaultRequest
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := requestCtx(ctx, request)
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := cc.pick(override, to.Dial).Do(req)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	return resp, cancel, nil
}

// get fetches url and returns a 200 body of at most limit bytes; any other
// status decodes the error envelope into a typed *APIError.
func (cc *clientCore) get(ctx context.Context, override *http.Client, to Timeouts, defaultRequest time.Duration,
	url string, limit int64) ([]byte, error) {
	resp, cancel, err := cc.do(ctx, override, to, defaultRequest, http.MethodGet, url, "", nil)
	if err != nil {
		return nil, fmt.Errorf("httpapi: get %s: %w", url, err)
	}
	defer cancel()
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeAPIError(resp)
	}
	return io.ReadAll(io.LimitReader(resp.Body, limit))
}

// getJSON fetches url and JSON-decodes a 200 body into v (the metrics
// endpoints); errors decode the envelope.
func (cc *clientCore) getJSON(ctx context.Context, override *http.Client, to Timeouts, defaultRequest time.Duration,
	url string, v any) error {
	body, err := cc.get(ctx, override, to, defaultRequest, url, 1<<20)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

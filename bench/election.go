package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ddemos/internal/ballot"
	"ddemos/internal/core"
	"ddemos/internal/ea"
	"ddemos/internal/httpapi"
	"ddemos/internal/store"
	"ddemos/internal/transport"
	"ddemos/internal/vc"
)

// Every workload runs the same deployment shape (DESIGN.md's smallest
// Byzantine-tolerant cluster) so numbers compare across workloads.
const (
	numVC       = 4 // fv = 1
	numBB       = 3
	numTrustees = 3
	numOptions  = 4
	// storeCacheBytes is each VC node's ballot-cache budget. Every pool here
	// fits, so the cache's hit rate measures reuse (a vote touches its ballot
	// on all four nodes, several times), not capacity.
	storeCacheBytes = 64 << 20
)

// election is one deployed stack: EA output, the in-process cluster on the
// simulated LAN, one loopback HTTP listener per VC node, and the voters'
// shared keep-alive HTTP client.
type election struct {
	data  *ea.ElectionData
	cl    *core.Cluster
	dir   string
	urls  []string
	httpc *http.Client

	caches   []*store.Cached
	handlers []*swapHandler
	servers  []*http.Server
	served   sync.WaitGroup
	tr       *tracer

	// Per-layer observations of the traced run (nil-safe when tr is nil).
	storeGetUs *concurrentSamples
	handlerMs  *concurrentSamples
	storeGets  atomic.Int64
}

// swapHandler lets a restarted VC node take over its listener.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// concurrentSamples collects measurements from many goroutines.
type concurrentSamples struct {
	mu sync.Mutex
	v  samples
}

func (c *concurrentSamples) add(x float64) {
	c.mu.Lock()
	c.v = append(c.v, x)
	c.mu.Unlock()
}

func (c *concurrentSamples) sorted() samples {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v.sorted()
}

// setupTimes splits setup_s by layer (traced run).
type setupTimes struct {
	EA, StoreBuild, Cluster, Total time.Duration
}

// setupElection goes from the seed to a deployment that accepts votes —
// the whole of setup_s: EA setup, the per-node segment stores, the cluster
// (keys, authenticated batched channels, journals) and the HTTP listeners.
// tr is nil in the plain run.
func setupElection(sp *spec, seed uint64, dir string, tr *tracer) (*election, setupTimes, error) {
	var st setupTimes
	begin := time.Now()
	e := &election{dir: dir, tr: tr,
		storeGetUs: &concurrentSamples{}, handlerMs: &concurrentSamples{}}
	opts := make([]string, numOptions)
	for i := range opts {
		opts[i] = fmt.Sprintf("option-%d", i)
	}
	opening := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	id := fmt.Sprintf("bench-%s-%d", sp.Name, seed)
	var err error
	e.data, err = ea.Setup(ea.Params{
		ElectionID:  id,
		Options:     opts,
		NumBallots:  sp.Pool,
		NumVC:       numVC,
		NumBB:       numBB,
		NumTrustees: numTrustees,
		VotingStart: opening,
		VotingEnd:   opening.Add(24 * time.Hour),
		VCOnly:      !sp.FullCrypto,
		Seed:        []byte(id),
	})
	if err != nil {
		return nil, st, fmt.Errorf("ea setup: %w", err)
	}
	st.EA = time.Since(begin)
	// From here on a failure must release what was already opened.
	fail := func(err error) (*election, setupTimes, error) {
		e.close()
		return nil, st, err
	}

	buildStart := time.Now()
	copts := core.Options{
		Authenticated: true,
		BatchWindow:   transport.DefaultBatchWindow,
		DataDir:       filepath.Join(dir, "data"),
		Fsync:         sp.Fsync,
		JournalPool:   sp.JournalPool,
		JournalPolicy: sp.JournalPolicy,
		Consensus:     sp.Engine,
		Stores:        make(map[int]store.Store, numVC),
	}
	for i := 0; i < numVC; i++ {
		seg, err := store.CreateSegmented(filepath.Join(dir, fmt.Sprintf("seg-%d", i)),
			e.data.VC[i].Ballots, store.WriterOptions{})
		if err != nil {
			return fail(fmt.Errorf("segment store %d: %w", i, err))
		}
		cached, err := store.NewCached(seg, store.CachedOptions{MaxBytes: storeCacheBytes})
		if err != nil {
			_ = seg.Close()
			return fail(fmt.Errorf("store cache %d: %w", i, err))
		}
		e.caches = append(e.caches, cached)
		copts.Stores[i] = cached
		if tr != nil {
			copts.Stores[i] = &timedStore{Store: cached, e: e}
		}
	}
	st.StoreBuild = time.Since(buildStart)

	clusterStart := time.Now()
	e.cl, err = core.NewCluster(e.data, copts)
	if err != nil {
		return fail(fmt.Errorf("cluster: %w", err))
	}
	e.httpc = httpapi.NewPooledClient(0)
	for i := 0; i < numVC; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("listen: %w", err))
		}
		h := &swapHandler{}
		e.handlers = append(e.handlers, h)
		e.bindHandler(i)
		srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
		e.servers = append(e.servers, srv)
		e.urls = append(e.urls, "http://"+ln.Addr().String())
		e.served.Add(1)
		go func() {
			defer e.served.Done()
			_ = srv.Serve(ln) // returns ErrServerClosed on close()
		}()
	}
	st.Cluster = time.Since(clusterStart)
	st.Total = time.Since(begin)
	return e, st, nil
}

// bindHandler points listener i at the current incarnation of VC node i.
func (e *election) bindHandler(i int) {
	h := httpapi.VCHandler(e.cl.VC(i))
	if e.tr != nil {
		h = &timedHandler{Handler: h, e: e}
	}
	e.handlers[i].h.Store(&h)
}

// close stops listeners, cluster and client, and waits for all of them.
func (e *election) close() {
	for _, srv := range e.servers {
		_ = srv.Close()
	}
	e.served.Wait()
	if e.httpc != nil {
		e.httpc.CloseIdleConnections()
	}
	if e.cl != nil {
		e.cl.Stop()
	}
	for _, c := range e.caches {
		_ = c.Close()
	}
}

// sender returns the sendFunc casting votes over HTTP /v1 to the node each
// vote names (remapped onto `alive` when a node is down). A vote succeeds
// only if the receipt equals the one printed on the voter's ballot.
func (e *election) sender(votes []vote, alive []int) sendFunc {
	clients := make([]*httpapi.VCClient, numVC)
	for i := range clients {
		clients[i] = &httpapi.VCClient{BaseURL: e.urls[i], HTTP: e.httpc}
	}
	return func(ctx context.Context, i int) bool {
		v := votes[i]
		b := e.data.Ballots[v.Serial-1]
		line := b.Parts[v.Part].Lines[v.Option]
		node := v.Node
		if alive != nil {
			node = alive[v.Node%len(alive)]
		}
		var start time.Time
		traced := e.tr.voteSpans()
		if traced {
			start = time.Now()
		}
		receipt, err := clients[node].SubmitVote(ctx, v.Serial, line.VoteCode)
		if traced {
			e.tr.add("vote", strconv.FormatUint(v.Serial, 10), "", start, time.Now())
		}
		return err == nil && bytes.Equal(receipt, line.Receipt)
	}
}

// auditPackages builds what `voted` voters and `abstained` non-voters hand
// to a delegated auditor (§III-F).
func (e *election) auditPackages(cast []vote, voted, abstained int) ([]*ballot.AuditPackage, error) {
	var pkgs []*ballot.AuditPackage
	votedSerial := make(map[uint64]bool, len(cast))
	for i, v := range cast {
		votedSerial[v.Serial] = true
		if i < voted {
			b := e.data.Ballots[v.Serial-1]
			pkg, err := b.NewAuditPackage(ballot.PartID(v.Part), b.Parts[v.Part].Lines[v.Option].VoteCode)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
	}
	for _, b := range e.data.Ballots {
		if abstained == 0 {
			break
		}
		if !votedSerial[b.Serial] {
			pkgs = append(pkgs, b.AbstainAuditPackage())
			abstained--
		}
	}
	return pkgs, nil
}

// journalDiskBytes sums the size of every VC journal directory.
func (e *election) journalDiskBytes() int64 {
	var total int64
	for i := 0; i < numVC; i++ {
		root := filepath.Join(e.dir, "data", fmt.Sprintf("vc-%d", i))
		_ = filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() {
				total += info.Size()
			}
			return nil // a file rotated away mid-walk is not an error here
		})
	}
	return total
}

// vcTotals sums the VC nodes' counters.
func (e *election) vcTotals() vc.Snapshot {
	var sum vc.Snapshot
	for i := 0; i < numVC; i++ {
		s := e.cl.VC(i).Metrics()
		sum.VotesAccepted += s.VotesAccepted
		sum.BadMessages += s.BadMessages
		sum.SendErrors += s.SendErrors
		sum.JournalRecords += s.JournalRecords
		sum.JournalErrors += s.JournalErrors
		sum.Snapshots += s.Snapshots
		sum.StrictRefusals += s.StrictRefusals
		sum.AvgEndorse += s.AvgEndorse / numVC
		sum.AvgVote += s.AvgVote / numVC
	}
	return sum
}

// --- traced-run decorators -------------------------------------------------

// timedStore times every Get a VC node makes (below it sits the cache, so
// the time is what the node waits, hit or miss).
type timedStore struct {
	store.Store
	e *election
}

func (s *timedStore) Get(serial uint64) (*store.BallotData, error) {
	if !s.e.tr.voteSpans() {
		return s.Store.Get(serial)
	}
	start := time.Now()
	bd, err := s.Store.Get(serial)
	end := time.Now()
	s.e.storeGets.Add(1)
	s.e.storeGetUs.add(float64(end.Sub(start)) / 1e3)
	s.e.tr.add("store.get", strconv.FormatUint(serial, 10), "httpapi.handle", start, end)
	return bd, err
}

// timedHandler times the VC node's HTTP handler. It reads the (tiny) request
// body to learn the serial the spans are filed under, then replays it.
type timedHandler struct {
	http.Handler
	e *election
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.e.tr.voteSpans() || r.Method != http.MethodPost {
		h.Handler.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	body, err := io.ReadAll(io.LimitReader(r.Body, 4096))
	if err != nil {
		http.Error(w, "bench: reading body", http.StatusBadRequest)
		return
	}
	var req httpapi.VoteRequest
	_ = json.Unmarshal(body, &req) // a malformed body is the real handler's to refuse
	r.Body = io.NopCloser(bytes.NewReader(body))
	h.Handler.ServeHTTP(w, r)
	end := time.Now()
	h.e.handlerMs.add(float64(end.Sub(start)) / 1e6)
	h.e.tr.add("httpapi.handle", strconv.FormatUint(req.Serial, 10), "vote", start, end)
}

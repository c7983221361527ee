// ddemos-vc runs one Vote Collector node in a multi-process deployment:
// inter-VC traffic over TCP, the public voter endpoint over HTTP. At the
// election end time it runs vote-set consensus and pushes the agreed set
// (and its master-key share) to every BB node.
//
//	ddemos-vc -init election/vc-0.gob \
//	          -listen :7100 -peers :7100,:7101,:7102,:7103 \
//	          -http :8100 -bb http://localhost:9100,http://localhost:9101
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ddemos/internal/ea"
	"ddemos/internal/httpapi"
	"ddemos/internal/journal"
	"ddemos/internal/store"
	"ddemos/internal/transport"
	"ddemos/internal/vc"
)

// openOrBuildSegments serves the -store-segments flag and the init
// payload's BallotsDir reference: open an existing segment directory, or
// materialize one from the init payload's ballot pool (a one-time streaming
// build) when the manifest is missing. A crash mid-build leaves orphaned
// ballots-*.seg files and no manifest; the rebuild clears them explicitly
// so a reboot converges on a clean store instead of mixing stale and fresh
// segments. With cacheBytes > 0 the opened store is wrapped in the
// admission-controlled LRU.
func openOrBuildSegments(dir string, init *ea.VCInit, cacheBytes int64) (store.Store, error) {
	var seg *store.Segmented
	if _, err := os.Stat(filepath.Join(dir, store.ManifestName)); err == nil {
		seg, err = store.OpenSegmented(dir)
		if err != nil {
			return nil, err
		}
		log.Printf("ballot store: %d ballots from %d segments in %s", seg.Count(), seg.Segments(), dir)
	} else {
		if len(init.Ballots) == 0 {
			return nil, fmt.Errorf("segment dir %s has no %s and the init payload carries no inline pool — "+
				"point the node at the EA-emitted segment directory (BallotsDir/-store-segments)",
				dir, store.ManifestName)
		}
		w, err := store.NewWriter(dir, store.WriterOptions{})
		if err != nil {
			// A crash mid-build leaves segment files without a manifest;
			// NewWriter refuses them so a rebuild cannot silently mix stale
			// and fresh segments. Clearing them here is safe — without a
			// manifest the directory never served anything.
			log.Printf("ballot store: %v; clearing and rebuilding", err)
			if w, err = store.NewWriter(dir, store.WriterOptions{ClearStale: true}); err != nil {
				return nil, err
			}
		}
		for _, b := range init.Ballots {
			if err := w.Append(b); err != nil {
				w.Abort()
				return nil, err
			}
		}
		seg, err = w.Finish()
		if err != nil {
			return nil, err
		}
		log.Printf("ballot store: built %d segments (%d ballots) in %s", seg.Segments(), seg.Count(), dir)
	}
	if cacheBytes <= 0 {
		return seg, nil
	}
	cached, err := store.NewCached(seg, store.CachedOptions{MaxBytes: cacheBytes})
	if err != nil {
		_ = seg.Close()
		return nil, err
	}
	log.Printf("ballot store: %d byte LRU cache (admission-controlled, single-flight)", cacheBytes)
	return cached, nil
}

// vcEndpoint is the inter-VC endpoint a node runs: TCP, then pairwise-MAC
// link authentication under the EA-dealt keys, then, with -batch, the
// Batcher. tcp and auth are its lower layers.
type vcEndpoint struct {
	transport.Endpoint
	tcp  *transport.TCPNode
	auth *transport.Authenticated
}

// openEndpoint builds node init.Index's inter-VC endpoint, listening on
// listen and dialing peers (id -> host:port). A payload without link keys is
// refused: the node would have no way to tell its peers' frames from
// anyone's.
func openEndpoint(init *ea.VCInit, listen string, peers map[transport.NodeID]string, batch bool, batchMax int) (*vcEndpoint, error) {
	tcp, err := transport.NewTCPNode(transport.NodeID(init.Index), listen, peers) //nolint:gosec // small
	if err != nil {
		return nil, err
	}
	auth, err := transport.NewAuthenticated(tcp, init.LinkKeys)
	if err != nil {
		_ = tcp.Close()
		return nil, fmt.Errorf("%w (a vc-<i>.gob from an older ddemos-ea: re-run it)", err)
	}
	ep := &vcEndpoint{Endpoint: auth, tcp: tcp, auth: auth}
	// Batching is symmetric: every node of a deployment must run the same
	// -batch setting (the receive path splits batches regardless, but mixed
	// settings forfeit the coalescing win).
	if batch {
		ep.Endpoint = transport.NewBatcher(auth, transport.BatcherOptions{
			MaxMessages: batchMax,
			// Flushes have no caller to return an error to; log the drops
			// or an unreachable peer is invisible.
			OnSendError: func(to transport.NodeID, err error) {
				log.Printf("batch flush to vc-%d failed: %v", to, err)
			},
		})
	}
	return ep, nil
}

func main() {
	initPath := flag.String("init", "", "path to vc-<i>.gob")
	listen := flag.String("listen", ":7100", "TCP listen address for inter-VC traffic")
	peersS := flag.String("peers", "", "comma-separated peer TCP addresses, in node-index order")
	httpAddr := flag.String("http", ":8100", "public HTTP voting endpoint")
	bbS := flag.String("bb", "", "comma-separated BB base URLs for the election-end push")
	batch := flag.Bool("batch", false,
		"coalesce outgoing inter-VC messages that queue for a peer while its link is busy into one batch frame "+
			"(an idle link sends at once)")
	batchMax := flag.Int("batch-max", 0, "max messages per batch (0 = transport default)")
	dataDir := flag.String("data-dir", "",
		"directory for durable runtime state (WAL lanes + snapshots); the node recovers from it on startup, "+
			"so a crashed collector rejoins the election instead of staying down (empty = memory-only)")
	fsync := flag.Bool("fsync", false,
		"fsync the journal before every ack instead of on the batched group-commit cadence "+
			"(per-transition durability against power loss; requires -data-dir)")
	journalPool := flag.Int("journal-pool", 1,
		"number of journal WAL lanes runtime state is hashed over by ballot serial, each with its own "+
			"group-commit fsync and copy-on-write snapshots — the Fig. 5a pool knob; a directory reopens "+
			"only with the lane count it was written under (requires -data-dir)")
	storeSegments := flag.String("store-segments", "",
		"segment directory for the ballot store (serial-range-sharded fixed-record files + manifest). "+
			"If the directory has no manifest yet it is built once, streamed from the init payload; "+
			"afterwards the node serves ballots from segments instead of holding the pool in memory — "+
			"the millions-of-ballots configuration (empty = in-memory store)")
	storeCache := flag.Int64("store-cache", 0,
		"ballot-store cache budget in bytes (e.g. 67108864 for 64MiB): wraps the segmented store with "+
			"an admission-controlled LRU with single-flight loading, so the protocol's per-ballot fan-in "+
			"costs one positional read (0 = no cache; requires -store-segments)")
	consensusEngine := flag.String("consensus", "interlocked",
		"vote-set-consensus engine: 'interlocked' (the paper's per-ballot binary consensus) or "+
			"'acs' (BKR common-subset: reliable broadcast per node + one binary agreement per "+
			"broadcaster). Every node of a deployment must run the same engine")
	journalPolicy := flag.String("journal-policy", "available",
		"journal-append-error ack policy: 'available' counts errors and keeps serving from memory, "+
			"'strict' refuses ENDORSEMENT replies and receipts whose record did not land "+
			"(the safer election-day setting; requires -data-dir, pair with -fsync for "+
			"power-loss durability of every ack)")
	flag.Parse()
	if *initPath == "" {
		log.Fatal("-init is required")
	}

	var init ea.VCInit
	if err := httpapi.ReadGobFile(*initPath, &init); err != nil {
		log.Fatal(err)
	}
	peers := map[transport.NodeID]string{}
	for i, addr := range strings.Split(*peersS, ",") {
		if i != init.Index && addr != "" {
			peers[transport.NodeID(i)] = addr //nolint:gosec // small
		}
	}
	ep, err := openEndpoint(&init, *listen, peers, *batch, *batchMax)
	if err != nil {
		log.Fatal(err)
	}
	// Resolve the ballot store: an explicit -store-segments dir wins;
	// otherwise a segment-emitting EA handoff names its pre-built directory
	// in the init payload (relative paths resolve against the payload
	// file), and the node opens it without ever decoding a pool.
	segDir := *storeSegments
	if segDir == "" && init.BallotsDir != "" {
		segDir = init.BallotsDir
		if !filepath.IsAbs(segDir) {
			segDir = filepath.Join(filepath.Dir(*initPath), segDir)
		}
		log.Printf("ballot store: init payload references segment dir %s", segDir)
	}
	if *storeCache > 0 && segDir == "" {
		log.Fatal("-store-cache requires -store-segments (or a segment-emitting init payload)")
	}
	var ballotStore store.Store
	if segDir != "" {
		ballotStore, err = openOrBuildSegments(segDir, &init, *storeCache)
		if err != nil {
			log.Fatal(err)
		}
		defer func() { _ = ballotStore.Close() }()
		// The gob-decoded pool (if any) has served its purpose (segment
		// build); drop it so the process actually runs at cache-budget
		// memory — holding it would defeat the flag at the
		// millions-of-ballots scale.
		init.Ballots = nil
	}
	engine, err := vc.ParseEngine(*consensusEngine)
	if err != nil {
		log.Fatal(err)
	}
	node, err := vc.New(vc.Config{Init: &init, Endpoint: ep, Store: ballotStore, Engine: engine})
	if err != nil {
		log.Fatal(err)
	}
	policy, err := journal.ParseAckPolicy(*journalPolicy)
	if err != nil {
		log.Fatal(err)
	}
	if *dataDir != "" {
		jopts := journal.Options{Fsync: *fsync, Pool: *journalPool, Policy: policy}
		if err := node.RecoverWithOptions(*dataDir, jopts); err != nil {
			log.Fatalf("recovering runtime state from %s: %v", *dataDir, err)
		}
		log.Printf("recovered runtime state from %s (fsync=%v pool=%d policy=%s)",
			*dataDir, *fsync, *journalPool, policy)
	} else {
		switch {
		case *fsync:
			log.Fatal("-fsync requires -data-dir")
		case *journalPool > 1:
			log.Fatal("-journal-pool requires -data-dir")
		case policy != journal.PolicyAvailable:
			log.Fatal("-journal-policy strict requires -data-dir")
		}
	}
	node.Start()
	defer node.Stop()
	log.Printf("vc node %d: inter-VC on %s (authenticated links), voters on %s", init.Index, ep.tcp.Addr(), *httpAddr)

	// Public voter endpoint.
	srv := httpapi.NewServer(*httpAddr, httpapi.VCHandler(node))
	go func() {
		if err := srv.ListenAndServe(); err != http.ErrServerClosed {
			log.Fatalf("http: %v", err)
		}
	}()
	defer func() { _ = srv.Close() }()

	// Wait for election end, then run vote-set consensus and push to BB.
	if d := time.Until(init.Manifest.VotingEnd); d > 0 {
		log.Printf("collecting votes until %s (%s)", init.Manifest.VotingEnd, d.Round(time.Second))
		time.Sleep(d)
	}
	log.Printf("election ended; running vote set consensus")
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	set, err := node.VoteSetConsensus(ctx)
	if err != nil {
		log.Fatalf("vote set consensus: %v", err)
	}
	log.Printf("agreed on %d voted ballots (%d inter-VC frames dropped for failing authentication)",
		len(set), ep.auth.Dropped())

	sg := node.SignVoteSet(set)
	for _, base := range strings.Split(*bbS, ",") {
		if base == "" {
			continue
		}
		client := &httpapi.BBClient{BaseURL: base}
		if err := client.SubmitVoteSet(ctx, init.Index, set, sg); err != nil {
			log.Printf("push to %s: %v", base, err)
			continue
		}
		if err := client.SubmitMskShare(ctx, node.MskShare()); err != nil {
			log.Printf("msk share to %s: %v", base, err)
			continue
		}
		fmt.Println("pushed vote set and key share to", base)
	}
}

// ddemos-vc runs one Vote Collector node in a multi-process deployment:
// inter-VC traffic over TCP, the public voter endpoint over HTTP. At the
// election end time it runs vote-set consensus and pushes the agreed set
// (and its master-key share) to every BB node.
//
//	ddemos-vc -init election/vc-0.bin \
//	          -listen :7100 -peers :7100,:7101,:7102,:7103 \
//	          -http :8100 -bb http://localhost:9100,http://localhost:9101
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"ddemos/internal/bb"
	"ddemos/internal/ea"
	"ddemos/internal/httpapi"
	"ddemos/internal/journal"
	"ddemos/internal/store"
	"ddemos/internal/transport"
	"ddemos/internal/vc"
)

// openBallotStore opens the segment directory ddemos-ea emitted for the node
// (init.BallotsDir; a relative path resolves against initPath's directory)
// behind the admission-controlled LRU of cacheBytes bytes. A payload that
// names no directory is refused, as is a cache budget that is not positive.
func openBallotStore(init *ea.VCInit, initPath string, cacheBytes int64) (store.Store, error) {
	if init.BallotsDir == "" {
		return nil, errors.New("the init payload names no ballot segment directory " +
			"(a vc-<i>.bin from an older ddemos-ea: re-run it)")
	}
	if cacheBytes <= 0 {
		return nil, fmt.Errorf("-store-cache %d: the ballot cache needs a positive byte budget", cacheBytes)
	}
	dir := init.BallotsDir
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(filepath.Dir(initPath), dir)
	}
	seg, err := store.OpenSegmented(dir)
	if err != nil {
		return nil, err
	}
	cached, err := store.NewCached(seg, store.CachedOptions{MaxBytes: cacheBytes})
	if err != nil {
		_ = seg.Close()
		return nil, err
	}
	log.Printf("ballot store: %d ballots from %d segments in %s, %d byte cache",
		seg.Count(), seg.Segments(), dir, cacheBytes)
	return cached, nil
}

func main() {
	initPath := flag.String("init", "", "path to vc-<i>.bin")
	listen := flag.String("listen", ":7100", "TCP listen address for inter-VC traffic")
	peersS := flag.String("peers", "", "comma-separated peer TCP addresses, in node-index order")
	httpAddr := flag.String("http", ":8100", "public HTTP voting endpoint")
	bbS := flag.String("bb", "", "comma-separated BB base URLs for the election-end push")
	journalFlags := journal.RegisterFlags(flag.CommandLine, "ballot serial")
	storeCache := flag.Int64("store-cache", 64<<20,
		"memory budget in bytes of the admission-controlled LRU with single-flight loading in front of "+
			"the node's ballot segments, so the protocol's per-ballot fan-in costs one positional read "+
			"(must be positive)")
	consensusEngine := flag.String("consensus", "interlocked",
		"vote-set-consensus engine: 'interlocked' (the paper's per-ballot binary consensus) or "+
			"'acs' (BKR common-subset: reliable broadcast per node + one binary agreement per "+
			"broadcaster). Every node of a deployment must run the same engine")
	flag.Parse()
	if *initPath == "" {
		log.Fatal("-init is required")
	}
	dataDir, jopts, err := journalFlags.Options()
	if err != nil {
		log.Fatal(err)
	}
	engine, err := vc.ParseEngine(*consensusEngine)
	if err != nil {
		log.Fatal(err)
	}

	init, err := bb.VCFile.Read(*initPath)
	if err != nil {
		log.Fatal(err)
	}
	ballotStore, err := openBallotStore(&init, *initPath, *storeCache)
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = ballotStore.Close() }()
	peers := map[transport.NodeID]string{}
	for i, addr := range strings.Split(*peersS, ",") {
		if i != init.Index && addr != "" {
			peers[transport.NodeID(i)] = addr //nolint:gosec // small
		}
	}
	tcp, err := transport.NewTCPNode(transport.NodeID(init.Index), *listen, peers) //nolint:gosec // small
	if err != nil {
		log.Fatal(err)
	}
	node, err := vc.Open(vc.Config{Init: &init, Endpoint: tcp, Store: ballotStore, Engine: engine}, dataDir, jopts,
		func(to transport.NodeID, err error) { log.Printf("batch flush to vc-%d failed: %v", to, err) })
	if err != nil {
		log.Fatal(err)
	}
	defer node.Stop()
	if dataDir != "" {
		log.Printf("recovered runtime state from %s (fsync=%v pool=%d policy=%s)",
			dataDir, jopts.Fsync, jopts.Pool, jopts.Policy)
	}
	log.Printf("vc node %d: inter-VC on %s (authenticated, batched links), voters on %s", init.Index, tcp.Addr(), *httpAddr)

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
		len(set), node.Metrics().LinkDrops)

	var urls []string
	var boards []bb.Submitter
	for _, base := range strings.Split(*bbS, ",") {
		if base != "" {
			urls = append(urls, base)
			boards = append(boards, (&httpapi.BBClient{BaseURL: base}).Submitter(ctx))
		}
	}
	for i, err := range bb.Push(node, set, boards) {
		if err != nil {
			log.Printf("push to %s: %v", urls[i], err)
			continue
		}
		fmt.Println("pushed vote set and key share to", urls[i])
	}
}

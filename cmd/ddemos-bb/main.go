// ddemos-bb runs one Bulletin Board replica: a public, anonymous HTTP read
// API plus signature-verified write endpoints. BB nodes never talk to each
// other (§III-G); readers query several and take the majority answer.
//
//	ddemos-bb -init election/bb.gob -http :9100
package main

import (
	"flag"
	"log"
	"net/http"
	"time"

	"ddemos/internal/bb"
	"ddemos/internal/httpapi"
	"ddemos/internal/journal"
)

func main() {
	initPath := flag.String("init", "", "path to bb.gob")
	httpAddr := flag.String("http", ":9100", "public HTTP address")
	combineWorkers := flag.Int("combine-workers", 0, "parallelism of tally combine attempts (0 = GOMAXPROCS)")
	metricsEvery := flag.Duration("metrics-every", 0, "log publish-phase metrics at this interval (0 = off; also served at GET /v1/metrics)")
	dataDir := flag.String("data-dir", "",
		"directory for durable runtime state (WAL lanes + snapshots); the node recovers accepted vote sets, "+
			"msk shares, trustee posts and the published result from it on startup, so a crashed replica "+
			"rejoins the board instead of staying down (empty = memory-only)")
	fsync := flag.Bool("fsync", false,
		"fsync the journal before every ack instead of on the batched group-commit cadence "+
			"(per-submission durability against power loss; requires -data-dir)")
	journalPool := flag.Int("journal-pool", 1,
		"number of journal WAL lanes runtime state is hashed over by submission key, each with its own "+
			"group-commit fsync and copy-on-write snapshots; a directory reopens only with the lane count "+
			"it was written under (requires -data-dir)")
	journalPolicy := flag.String("journal-policy", "available",
		"journal-append-error ack policy: 'available' counts errors and keeps serving from memory, "+
			"'strict' refuses submission acks whose record did not land "+
			"(the safer election-day setting; requires -data-dir, pair with -fsync for "+
			"power-loss durability of every ack)")
	flag.Parse()
	if *initPath == "" {
		log.Fatal("-init is required")
	}
	init, err := httpapi.ReadBBInitFile(*initPath)
	if err != nil {
		log.Fatal(err)
	}
	node, err := bb.NewNode(init)
	if err != nil {
		log.Fatal(err)
	}
	node.CombineWorkers = *combineWorkers
	policy, err := journal.ParseAckPolicy(*journalPolicy)
	if err != nil {
		log.Fatal(err)
	}
	if *dataDir != "" {
		jopts := journal.Options{Fsync: *fsync, Pool: *journalPool, Policy: policy}
		if err := node.RecoverWithOptions(*dataDir, jopts); err != nil {
			log.Fatalf("recovering runtime state from %s: %v", *dataDir, err)
		}
		defer node.Close()
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
	if *metricsEvery > 0 {
		go func() {
			for range time.Tick(*metricsEvery) {
				s := node.Metrics()
				log.Printf("metrics: posts=%d rejected=%d equiv=%d/%d blamed=%d attempts=%d combine=%s "+
					"fallbacks=%d journal=%d jerr=%d snaps=%d published=%v",
					s.PostsAccepted, s.PostsRejected, s.SetEquivocations, s.PostEquivocations,
					s.BadPostBlames, s.CombineAttempts, s.CombineTime, s.BatchFallbacks,
					s.JournalRecords, s.JournalErrors, s.Snapshots, s.ResultPublished)
			}
		}()
	}
	log.Printf("bb node serving election %q on %s", init.Manifest.ElectionID, *httpAddr)
	srv := &http.Server{Addr: *httpAddr, Handler: httpapi.BBHandler(node), ReadHeaderTimeout: 10 * time.Second}
	log.Fatal(srv.ListenAndServe())
}

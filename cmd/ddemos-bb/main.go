// ddemos-bb runs one Bulletin Board replica: a public, anonymous HTTP read
// API plus signature-verified write endpoints. BB nodes never talk to each
// other (§III-G); readers query several and take the majority answer.
//
//	ddemos-bb -init election/bb.bin -http :9100
package main

import (
	"flag"
	"log"

	"ddemos/internal/bb"
	"ddemos/internal/httpapi"
	"ddemos/internal/journal"
)

func main() {
	initPath := flag.String("init", "", "path to bb.bin")
	httpAddr := flag.String("http", ":9100", "public HTTP address (publish-phase metrics at GET /v1/metrics)")
	journalFlags := journal.RegisterFlags(flag.CommandLine, "submission key")
	flag.Parse()
	if *initPath == "" {
		log.Fatal("-init is required")
	}
	dataDir, jopts, err := journalFlags.Options()
	if err != nil {
		log.Fatal(err)
	}
	init, err := bb.InitFile.Read(*initPath)
	if err != nil {
		log.Fatal(err)
	}
	node, err := bb.Open(&init, dataDir, jopts)
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	if dataDir != "" {
		log.Printf("recovered runtime state from %s (fsync=%v pool=%d policy=%s)",
			dataDir, jopts.Fsync, jopts.Pool, jopts.Policy)
	}
	log.Printf("bb node serving election %q on %s", init.Manifest.ElectionID, *httpAddr)
	log.Fatal(httpapi.NewServer(*httpAddr, httpapi.BBHandler(node)).ListenAndServe())
}

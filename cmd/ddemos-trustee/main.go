// ddemos-trustee runs one trustee: it reads the published cast data from
// the BB nodes (majority), computes its shares of the tally opening and the
// zero-knowledge final moves, and posts them to every BB node (§III-H).
//
//	ddemos-trustee -init election/trustee-0.bin \
//	               -bb http://localhost:9100,http://localhost:9101,http://localhost:9102
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"ddemos/internal/bb"
	"ddemos/internal/httpapi"
	"ddemos/internal/trustee"
)

func main() {
	initPath := flag.String("init", "", "path to trustee-<i>.bin")
	bbS := flag.String("bb", "", "comma-separated BB base URLs")
	wait := flag.Duration("wait", 5*time.Second, "poll interval while cast data is unpublished")
	flag.Parse()
	if *initPath == "" || *bbS == "" {
		log.Fatal("-init and -bb are required")
	}
	init, err := bb.TrusteeFile.Read(*initPath)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := trustee.New(&init)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	var apis []bb.API
	var boards []bb.Submitter
	urls := strings.Split(*bbS, ",")
	for _, base := range urls {
		c := &httpapi.BBClient{BaseURL: base}
		apis = append(apis, c.API(ctx))
		boards = append(boards, c.Submitter(ctx))
	}
	reader := bb.NewReader(apis)

	for {
		errs, err := tr.PublishTo(reader, boards)
		if err != nil {
			log.Printf("cast data not ready (%v); retrying in %v", err, *wait)
			time.Sleep(*wait)
			continue
		}
		for i, err := range errs {
			if err != nil {
				log.Printf("post to %s: %v", urls[i], err)
				continue
			}
			fmt.Println("posted shares to", urls[i])
		}
		break
	}
	log.Printf("trustee %d done", init.Index)
}

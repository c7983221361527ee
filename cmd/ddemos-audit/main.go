// ddemos-audit verifies a complete election from the Bulletin Board nodes:
// every commitment opening, every zero-knowledge proof, the homomorphic
// tally, and the structural checks (a)-(e) of §III-I. Anyone can run it;
// it needs no secrets.
//
//	ddemos-audit -bb http://localhost:9100,http://localhost:9101,http://localhost:9102
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"ddemos/internal/auditor"
	"ddemos/internal/bb"
	"ddemos/internal/httpapi"
)

func main() {
	bbS := flag.String("bb", "", "comma-separated BB base URLs")
	flag.Parse()
	if *bbS == "" {
		log.Fatal("-bb is required")
	}
	ctx := context.Background()
	var apis []bb.API
	for _, base := range strings.Split(*bbS, ",") {
		apis = append(apis, (&httpapi.BBClient{BaseURL: base}).API(ctx))
	}
	reader := bb.NewReader(apis)
	report, err := auditor.Audit(reader, nil)
	if err != nil {
		log.Fatalf("audit could not run: %v", err)
	}
	// Print the board the audit read; its counts only once it passed shape.
	fmt.Printf("election %q\n", report.Manifest.ElectionID)
	if report.Result != nil {
		for i, o := range report.Manifest.Options {
			fmt.Printf("  %-20s %d\n", o, report.Result.Counts[i])
		}
	}
	fmt.Printf("checked: %d ballots, %d proofs, %d openings\n",
		report.BallotsChecked, report.ProofsChecked, report.OpeningsChecked)
	if !report.OK() {
		fmt.Println("AUDIT FAILED:")
		for _, f := range report.Failures {
			fmt.Println("  ✗", f)
		}
		os.Exit(1)
	}
	fmt.Println("audit PASSED: the election verifies end-to-end")
}

// ddemos-voter casts one vote over HTTP — the complete client a voter
// needs: no keys, no crypto, just a serial, a vote code and a receipt to
// compare (§III-F). It can also verify the vote after the election.
//
//	ddemos-voter -ballots election/ballots.bin -serial 3 -part A -option yes \
//	             -vc http://localhost:8100,http://localhost:8101
//
//	ddemos-voter -verify -ballots election/ballots.bin -serial 3 \
//	             -code <hex> -part A -option yes \
//	             -bb http://localhost:9100,http://localhost:9101,http://localhost:9102
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"ddemos/internal/ballot"
	"ddemos/internal/bb"
	"ddemos/internal/httpapi"
	"ddemos/internal/voter"
)

func main() {
	ballotsPath := flag.String("ballots", "", "path to ballots.bin (stands in for the secure ballot channel)")
	serial := flag.Uint64("serial", 0, "ballot serial number")
	partS := flag.String("part", "", "ballot part to use: A or B (empty = random)")
	option := flag.String("option", "", "option name to vote for")
	vcS := flag.String("vc", "", "comma-separated VC base URLs")
	bbS := flag.String("bb", "", "comma-separated BB base URLs (for -verify)")
	verify := flag.Bool("verify", false, "verify a previously cast vote instead of voting")
	codeS := flag.String("code", "", "previously cast vote code (hex, with -verify)")
	patience := flag.Duration("patience", 5*time.Second, "per-node receipt patience ([d]-patience)")
	flag.Parse()

	if *ballotsPath == "" || *serial == 0 {
		log.Fatal("-ballots and -serial are required")
	}
	ballots, err := bb.BallotsFile.Read(*ballotsPath)
	if err != nil {
		log.Fatal(err)
	}
	if *serial > uint64(len(ballots)) {
		log.Fatalf("serial %d out of range", *serial)
	}
	b := ballots[*serial-1]

	optIdx := -1
	for i, l := range b.Parts[0].Lines {
		if l.Option == *option {
			optIdx = i
		}
	}

	if *verify {
		var apis []bb.API
		for _, base := range strings.Split(*bbS, ",") {
			apis = append(apis, (&httpapi.BBClient{BaseURL: base}).API(context.Background()))
		}
		reader := bb.NewReader(apis)
		code, err := ballot.ParseCode(*codeS)
		if err != nil {
			log.Fatal(err)
		}
		part := ballot.PartA
		if strings.EqualFold(*partS, "B") {
			part = ballot.PartB
		}
		cl := &voter.Client{Ballot: b}
		res := &voter.CastResult{Serial: *serial, Part: part, OptionIndex: optIdx, Code: code}
		if err := cl.Verify(reader, res); err != nil {
			log.Fatalf("VERIFICATION FAILED: %v", err)
		}
		fmt.Println("verified: vote is in the tally set and the ballot was not tampered with")
		return
	}

	if optIdx < 0 {
		log.Fatalf("option %q not on the ballot", *option)
	}
	var services []voter.Service
	for _, base := range strings.Split(*vcS, ",") {
		services = append(services, &httpapi.VCClient{BaseURL: base})
	}
	cl := &voter.Client{Ballot: b, Services: services, Patience: *patience}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	var res *voter.CastResult
	switch strings.ToUpper(*partS) {
	case "A":
		res, err = cl.CastWithPart(ctx, optIdx, ballot.PartA)
	case "B":
		res, err = cl.CastWithPart(ctx, optIdx, ballot.PartB)
	default:
		res, err = cl.Cast(ctx, optIdx)
	}
	if err != nil {
		log.Fatalf("vote failed: %v", err)
	}
	fmt.Printf("vote recorded as cast.\n  part:    %s\n  code:    %x\n  receipt: %x (matches your ballot)\n  attempts: %d\n",
		res.Part, res.Code, res.Receipt, res.Attempts)
	fmt.Println("keep the code and part for post-election verification (-verify).")
}

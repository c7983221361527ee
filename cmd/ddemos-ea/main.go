// ddemos-ea runs the Election Authority: it generates all initialization
// data and writes one payload file per component into -out. Distribute the
// files over secure channels, then delete the directory — the EA must not
// survive setup (§III-B of the paper).
//
//	ddemos-ea -out ./election -ballots 1000 -options yes,no -vc 4 -bb 3 -trustees 3 \
//	          -start 2026-06-10T08:00:00Z -end 2026-06-10T20:00:00Z
//
// Output files:
//
//	manifest.bin            public election description (give to everyone)
//	ballots.bin             all voter ballots (for the distribution channel)
//	vc-<i>.bin              VC node i's private initialization data
//	vc-<i>-ballots/         VC node i's pre-built segment store
//	bb.bin                  BB node initialization data (identical per node)
//	trustee-<i>.bin         trustee i's private shares
//
// Each .bin file is a header naming its kind, then one walk over the board's
// byte codec (bb.File); bb.bin's body is the init artefact every BB replica
// serves. Ballots stream straight to disk as they are generated — each VC's
// pool lands in a vc-<i>-ballots/ segment directory (store.Writer) the node
// opens directly, and ballots.bin/bb.bin/trustee-<i>.bin are written ballot
// by ballot — so setup memory is O(segment), not O(pool).
package main

import (
	"crypto/rand"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ddemos"
	"ddemos/internal/bb"
	"ddemos/internal/ea"
	"ddemos/internal/store"
)

func main() {
	cfg := eaConfig{}
	flag.StringVar(&cfg.out, "out", "election", "output directory")
	flag.IntVar(&cfg.ballots, "ballots", 100, "number of eligible voters")
	flag.StringVar(&cfg.options, "options", "yes,no", "comma-separated options")
	flag.IntVar(&cfg.nv, "vc", 4, "vote collector nodes")
	flag.IntVar(&cfg.nb, "bb", 3, "bulletin board nodes")
	flag.IntVar(&cfg.nt, "trustees", 3, "trustees")
	flag.IntVar(&cfg.ht, "threshold", 0, "trustee threshold (default majority)")
	flag.StringVar(&cfg.startS, "start", "", "voting start, RFC3339 (default now)")
	flag.StringVar(&cfg.endS, "end", "", "voting end, RFC3339 (default start+12h)")
	flag.IntVar(&cfg.segmentBallots, "segment-ballots", store.DefaultSegmentBallots, "ballots per segment file")
	flag.Parse()

	if err := run(cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsetup complete — distribute the files, then DELETE this directory.")
}

type eaConfig struct {
	out            string
	ballots        int
	options        string
	nv, nb, nt, ht int
	startS, endS   string
	segmentBallots int

	// electionID overrides the generated ID (tests and the cluster
	// harness); empty means newElectionID(start).
	electionID string
	// seed makes the setup deterministic (tests only).
	seed []byte
}

// newElectionID derives a collision-free election identifier: the start
// time for human greppability plus 8 bytes of crypto/rand, so two setups in
// the same second (parallel CI runs) can never collide on ID or data dirs.
func newElectionID(start time.Time) (string, error) {
	var suffix [8]byte
	if _, err := rand.Read(suffix[:]); err != nil {
		return "", fmt.Errorf("election id entropy: %w", err)
	}
	return fmt.Sprintf("election-%d-%s", start.Unix(), hex.EncodeToString(suffix[:])), nil
}

func run(cfg eaConfig, w io.Writer) error {
	start := time.Now()
	if cfg.startS != "" {
		var err error
		if start, err = time.Parse(time.RFC3339, cfg.startS); err != nil {
			return fmt.Errorf("bad -start: %w", err)
		}
	}
	end := start.Add(12 * time.Hour)
	if cfg.endS != "" {
		var err error
		if end, err = time.Parse(time.RFC3339, cfg.endS); err != nil {
			return fmt.Errorf("bad -end: %w", err)
		}
	}
	electionID := cfg.electionID
	if electionID == "" {
		var err error
		if electionID, err = newElectionID(start); err != nil {
			return err
		}
	}
	p := ddemos.Params{
		ElectionID:       electionID,
		Options:          strings.Split(cfg.options, ","),
		NumBallots:       cfg.ballots,
		NumVC:            cfg.nv,
		NumBB:            cfg.nb,
		NumTrustees:      cfg.nt,
		TrusteeThreshold: cfg.ht,
		VotingStart:      start,
		VotingEnd:        end,
		Seed:             cfg.seed,
	}
	if err := os.MkdirAll(cfg.out, 0o700); err != nil {
		return err
	}
	return runStreaming(cfg, p, w)
}

// runStreaming is the zero-copy path: SetupStream emits each ballot once,
// and every per-ballot artifact goes straight to disk — voter ballots and
// BB/trustee payloads as bb.Streams, each VC's pool through a store.Writer
// into its own segment directory. Peak memory is O(segment + stream
// window) regardless of pool size.
func runStreaming(cfg eaConfig, p ddemos.Params, w io.Writer) error {
	path := func(name string) string { return filepath.Join(cfg.out, name) }
	// outs are closed in order once setup is done, and all aborted on a
	// failure.
	type output struct {
		name  string
		close func() error
		abort func()
	}
	var outs []output
	stream := func(name string, s interface {
		Close() error
		Abort()
	}) {
		outs = append(outs, output{name, s.Close, s.Abort})
	}
	fail := func(err error) error {
		for _, o := range outs {
			o.abort()
		}
		return err
	}

	ballotsOut, err := bb.BallotsFile.Create(path("ballots.bin"), nil, p.NumBallots)
	if err != nil {
		return err
	}
	stream("ballots.bin", ballotsOut)
	segWriters := make([]*store.Writer, p.NumVC)
	for i := range segWriters {
		dir := fmt.Sprintf("vc-%d-ballots", i)
		sw, err := store.NewWriter(path(dir), store.WriterOptions{
			SegmentBallots: cfg.segmentBallots,
			ClearStale:     true,
		})
		if err != nil {
			return fail(err)
		}
		segWriters[i] = sw
		outs = append(outs, output{dir + string(os.PathSeparator), func() error {
			seg, err := sw.Finish()
			if err == nil {
				_ = seg.Close()
			}
			return err
		}, sw.Abort})
	}

	// OnComponents fires after key generation and before the first ballot:
	// open the BB/trustee streams with their heads written, so the sink
	// below only ever appends per-ballot values.
	var bbOut *bb.Stream[ea.BBBallot]
	var trusteeOuts []*bb.Stream[ea.TrusteeBallot]
	opts := ea.StreamOptions{
		OnComponents: func(sd *ea.StreamData) error {
			if sd.BB == nil {
				return nil
			}
			var err error
			if bbOut, err = bb.InitFile.Create(path("bb.bin"), sd.BB, p.NumBallots); err != nil {
				return err
			}
			stream("bb.bin", bbOut)
			trusteeOuts = make([]*bb.Stream[ea.TrusteeBallot], len(sd.Trustees))
			for i, t := range sd.Trustees {
				name := fmt.Sprintf("trustee-%d.bin", i)
				if trusteeOuts[i], err = bb.TrusteeFile.Create(path(name), t, p.NumBallots); err != nil {
					return err
				}
				stream(name, trusteeOuts[i])
			}
			return nil
		},
	}
	sd, err := ea.SetupStream(p, opts, func(e *ea.Emission) error {
		if err := ballotsOut.Append(&e.Voter); err != nil {
			return err
		}
		for i, sw := range segWriters {
			if err := sw.Append(e.VC[i]); err != nil {
				return err
			}
		}
		if e.BB != nil {
			if err := bbOut.Append(e.BB); err != nil {
				return err
			}
			for i := range e.Trustees {
				if err := trusteeOuts[i].Append(&e.Trustees[i]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return fail(fmt.Errorf("setup: %w", err))
	}
	outs = append(outs, output{"manifest.bin", func() error { return bb.ManifestFile.Write(path("manifest.bin"), &sd.Manifest) }, func() {}})
	for i, v := range sd.VC {
		v.BallotsDir = fmt.Sprintf("vc-%d-ballots", i) // relative to the payload file's directory
		name := fmt.Sprintf("vc-%d.bin", i)
		outs = append(outs, output{name, func() error { return bb.VCFile.Write(path(name), v) }, func() {}})
	}
	for _, o := range outs {
		if err := o.close(); err != nil {
			return fail(err)
		}
		fmt.Fprintln(w, "wrote", path(o.name))
	}
	return nil
}

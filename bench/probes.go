package main

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ddemos/internal/sig"
	"ddemos/internal/vc"
	"ddemos/internal/wire"
)

// Probes call one layer's public functions in isolation, on inputs shaped
// like the ones a vote produces, each operation for spec.ProbeFor. They run
// only in the traced run and give the unit costs the per-vote numbers
// decompose into (one sign + one verify per frame, Nv−fv verifies per UCERT,
// ...).

// perOp runs fn in batches until `during` has passed and returns the mean
// time of one call.
func perOp(during time.Duration, fn func()) time.Duration {
	const batch = 16
	var calls int
	start := time.Now()
	for time.Since(start) < during {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
	}
	return time.Since(start) / time.Duration(calls)
}

// allocsPerOp is the mean number of heap allocations of one call.
func allocsPerOp(fn func()) float64 {
	const calls = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / calls
}

// probeKey is deterministic: the probe measures cost, not secrecy.
func probeKey(i int) sig.KeyPair {
	kp, err := sig.NewKeyPair(bytes.NewReader(bytes.Repeat([]byte{byte(i + 1)}, ed25519.SeedSize)))
	if err != nil {
		panic(err) // the reader holds exactly the seed GenerateKey asks for
	}
	return kp
}

const probeDomain = "ddemos/bench/probe"

type sigCosts struct{ SignUs, VerifyUs, VerifyManyUsPerItem float64 }

// probeSig times the signature layer on endorsement-shaped input (election
// ID, serial, 20-byte vote code) and VerifyMany on 64 such items from Nv
// signers — the shape of a UCERT-carrying batch.
func probeSig(during time.Duration) sigCosts {
	election := []byte("bench-probe-election")
	code := make([]byte, 20)
	keys := make([]sig.KeyPair, numVC)
	for i := range keys {
		keys[i] = probeKey(i)
	}
	parts := func(serial uint64) [][]byte {
		return [][]byte{election, sig.Uint64Bytes(serial), code}
	}
	one := sig.Sign(keys[0].Private, probeDomain, parts(1)...)
	items := make([]sig.Item, 64)
	for i := range items {
		k := keys[i%numVC]
		p := parts(uint64(i)) //nolint:gosec // small
		items[i] = sig.Item{Pub: k.Public, Sig: sig.Sign(k.Private, probeDomain, p...), Parts: p}
	}
	var c sigCosts
	c.SignUs = us(perOp(during, func() { sig.Sign(keys[0].Private, probeDomain, parts(1)...) }))
	c.VerifyUs = us(perOp(during, func() {
		if !sig.Verify(keys[0].Public, one, probeDomain, parts(1)...) {
			panic("bench: probe signature does not verify")
		}
	}))
	c.VerifyManyUsPerItem = us(perOp(during, func() { sig.VerifyMany(probeDomain, items) })) / float64(len(items))
	return c
}

type wireCosts struct{ EncodeNs, DecodeNs, DecodeAllocs, SplitNsPerFrame float64 }

// probeWire times the codec on a VOTE_P frame (the largest per-vote message:
// share, EA signature and a UCERT of Nv−fv endorsements) and on splitting a
// 32-frame batch of them.
func probeWire(during time.Duration) wireCosts {
	msg := &wire.VoteP{
		Serial:     123456,
		Code:       make([]byte, 20),
		ShareIndex: 2,
		ShareValue: make([]byte, 32),
		ShareSig:   make([]byte, ed25519.SignatureSize),
		Cert:       wire.UCert{Serial: 123456, Code: make([]byte, 20)},
	}
	for i := 0; i < numVC-(numVC-1)/3; i++ {
		msg.Cert.Sigs = append(msg.Cert.Sigs,
			wire.SigEntry{Signer: uint16(i), Sig: make([]byte, ed25519.SignatureSize)}) //nolint:gosec // small
	}
	frame := wire.Encode(msg)
	frames := make([][]byte, 32)
	for i := range frames {
		frames[i] = frame
	}
	batch := wire.EncodeBatch(frames)
	decode := func() {
		if _, err := wire.Decode(frame); err != nil {
			panic(fmt.Sprintf("bench: probe frame does not decode: %v", err))
		}
	}
	var c wireCosts
	c.EncodeNs = float64(perOp(during, func() { wire.Encode(msg) }))
	c.DecodeNs = float64(perOp(during, decode))
	c.DecodeAllocs = allocsPerOp(decode)
	c.SplitNsPerFrame = float64(perOp(during, func() {
		if _, err := wire.SplitBatch(batch); err != nil {
			panic(fmt.Sprintf("bench: probe batch does not split: %v", err))
		}
	})) / float64(len(frames))
	return c
}

type journalCosts struct{ AppendUsP50, AppendsPerS, ReplayRecordsPerS float64 }

// probeJournal drives the journal backend the workload configures (single
// WAL or pooled lanes, group commit or fsync-per-append) with voted-ballot
// records from 8 appenders for 3×ProbeFor, then reopens the directory
// and times the replay — the journal's write side and read side without the
// protocol around them.
func probeJournal(dir string, sp *spec) (journalCosts, error) {
	var c journalCosts
	opts := vc.JournalOptions{Fsync: sp.Fsync, Pool: sp.JournalPool, Policy: sp.JournalPolicy}
	path := filepath.Join(dir, "journal-probe")
	j, err := vc.OpenJournal(path, opts)
	if err != nil {
		return c, fmt.Errorf("journal probe: %w", err)
	}
	const appenders = 8
	runFor := 3 * sp.ProbeFor
	var wg sync.WaitGroup
	lat := make([]samples, appenders)
	errs := make([]error, appenders)
	start := time.Now()
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			code, receipt := make([]byte, 20), make([]byte, 8)
			for serial := uint64(a); time.Since(start) < runFor; serial += appenders { //nolint:gosec // small
				rec := vc.EncodeVotedRecord(serial+1, code, receipt)
				t0 := time.Now()
				if err := j.Append([][]byte{rec}); err != nil {
					errs[a] = err
					return
				}
				lat[a] = append(lat[a], us(time.Since(t0)))
			}
		}(a)
	}
	wg.Wait()
	wall := time.Since(start)
	var all samples
	for a := range lat {
		if errs[a] != nil {
			_ = j.Close()
			return c, fmt.Errorf("journal probe append: %w", errs[a])
		}
		all = append(all, lat[a]...)
	}
	if err := j.Close(); err != nil {
		return c, fmt.Errorf("journal probe close: %w", err)
	}
	c.AppendUsP50 = all.sorted().percentile(50)
	c.AppendsPerS = float64(len(all)) / wall.Seconds()

	j, err = vc.OpenJournal(path, opts)
	if err != nil {
		return c, fmt.Errorf("journal probe reopen: %w", err)
	}
	replayed := 0
	t0 := time.Now()
	err = j.Replay(func([]byte) error { replayed++; return nil })
	took := time.Since(t0)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return c, fmt.Errorf("journal probe replay: %w", err)
	}
	if replayed != len(all) {
		return c, fmt.Errorf("journal probe: appended %d records, replayed %d", len(all), replayed)
	}
	c.ReplayRecordsPerS = float64(replayed) / took.Seconds()
	return c, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

package vc

import (
	"bytes"
	"context"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"ddemos/internal/acs"
	"ddemos/internal/ballot"
	"ddemos/internal/clock"
	"ddemos/internal/consensus"
	"ddemos/internal/crypto/group"
	"ddemos/internal/ea"
	"ddemos/internal/journal"
	"ddemos/internal/sig"
	"ddemos/internal/transport"
	"ddemos/internal/wire"
)

// These tests pin the contract of the certificate memo (verifyCerts): what a
// node already holds may only save it Ed25519 work, never change a verdict.
// Hosts are real nodes that are never started — no pump, no network — whose
// ballot state the tests warm by hand, so "what this node already verified"
// is exact.

const memoBallots = 12

// memoHosts builds four un-started nodes over one election.
func memoHosts(t *testing.T, numBallots int) (*ea.ElectionData, []*Node) {
	t.Helper()
	start := time.Date(2026, 6, 10, 8, 0, 0, 0, time.UTC)
	data, err := ea.Setup(ea.Params{
		ElectionID:  "vc-memo-test",
		Options:     []string{"yes", "no"},
		NumBallots:  numBallots,
		NumVC:       4,
		NumBB:       1,
		NumTrustees: 1,
		VotingStart: start,
		VotingEnd:   start.Add(2 * time.Hour),
		VCOnly:      true,
		Seed:        []byte("vc-memo-seed"),
	})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemnet(transport.LinkProfile{})
	t.Cleanup(func() { _ = net.Close() })
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i], err = New(Config{
			Init:     data.VC[i],
			Endpoint: net.Endpoint(transport.NodeID(i)), //nolint:gosec // small
			Clock:    clock.NewFake(start.Add(time.Minute)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return data, nodes
}

// signedEntry builds the announce entry for (serial, code) certified by the
// given signers, in that order, with their real keys.
func signedEntry(data *ea.ElectionData, serial uint64, code []byte, signers ...int) wire.AnnounceEntry {
	cert := wire.UCert{Serial: serial, Code: code}
	for _, s := range signers {
		cert.Sigs = append(cert.Sigs, wire.SigEntry{
			Signer: uint16(s), //nolint:gosec // small
			Sig: sig.Sign(data.VC[s].Private, endorseDomain,
				[]byte(data.Manifest.ElectionID), sig.Uint64Bytes(serial), code),
		})
	}
	return wire.AnnounceEntry{Serial: serial, Code: code, Cert: cert}
}

// optionCode is ballot serial's part-A vote code for an option.
func optionCode(t *testing.T, data *ea.ElectionData, serial uint64, option int) []byte {
	t.Helper()
	code, err := data.Ballots[serial-1].CodeFor(ballot.PartA, option)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// coldVerdict is the reference predicate acceptEntries must reproduce: range
// and binding checks, then VerifyUCert with every signature checked.
func coldVerdict(data *ea.ElectionData, e *wire.AnnounceEntry) bool {
	man := &data.Manifest
	return e.Serial >= 1 && e.Serial <= uint64(man.NumBallots) &&
		e.Cert.Serial == e.Serial && bytes.Equal(e.Cert.Code, e.Code) &&
		VerifyUCert(&e.Cert, man.ElectionID, man.VCPublics, man.ReceiptThreshold())
}

// cloneEntry deep-copies an entry so a mutation cannot reach its source.
func cloneEntry(e wire.AnnounceEntry) wire.AnnounceEntry {
	out := wire.AnnounceEntry{Serial: e.Serial, Code: append([]byte(nil), e.Code...)}
	out.Cert = wire.UCert{Serial: e.Cert.Serial, Code: append([]byte(nil), e.Cert.Code...)}
	for _, s := range e.Cert.Sigs {
		out.Cert.Sigs = append(out.Cert.Sigs, wire.SigEntry{Signer: s.Signer, Sig: append([]byte(nil), s.Sig...)})
	}
	return out
}

// warm installs entries into a node the way an ANNOUNCE would, failing the
// test if any is refused.
func warm(t *testing.T, n *Node, entries ...wire.AnnounceEntry) {
	t.Helper()
	for i, ok := range n.acceptEntries(entries) {
		if !ok {
			t.Fatalf("node %d refused a valid certificate for ballot %d", n.Index(), entries[i].Serial)
		}
	}
}

// TestVerifyUCertAllocatesNothingBeyondTheMessages pins the signer bitmask:
// the duplicate-signer check costs no allocation, so a certificate check
// allocates exactly what its three signed messages do.
func TestVerifyUCertAllocatesNothingBeyondTheMessages(t *testing.T) {
	data, _ := memoHosts(t, 1)
	man := &data.Manifest
	e := signedEntry(data, 1, optionCode(t, data, 1, 0), 0, 1, 2)
	sg := e.Cert.Sigs[0]
	perSig := testing.AllocsPerRun(200, func() {
		if !sig.Verify(man.VCPublics[sg.Signer], sg.Sig, endorseDomain,
			[]byte(man.ElectionID), sig.Uint64Bytes(e.Cert.Serial), e.Cert.Code) {
			t.Fatal("signature does not verify")
		}
	})
	got := testing.AllocsPerRun(200, func() {
		if !VerifyUCert(&e.Cert, man.ElectionID, man.VCPublics, man.ReceiptThreshold()) {
			t.Fatal("certificate does not verify")
		}
	})
	if want := perSig * float64(len(e.Cert.Sigs)); got > want {
		t.Fatalf("VerifyUCert allocates %.0f objects per call, its %d signature checks account for %.0f",
			got, len(e.Cert.Sigs), want)
	}
}

// TestVerifyCertsMemoAndTrim covers the three ways a certificate meets a
// node: cold (everything verified, and only verified signatures are kept),
// warm with the identical certificate (no crypto), warm with a different
// signer subset (only the unseen signature verified).
func TestVerifyCertsMemoAndTrim(t *testing.T) {
	data, nodes := memoHosts(t, 2)
	code := optionCode(t, data, 1, 0)
	n := nodes[0]
	verifies := func() int64 { return n.Metrics().CertSigVerifies }
	hits := func() int64 { return n.Metrics().CertSigMemoHits }

	// Cold, with a garbage fourth signature VerifyUCert never reaches: the
	// verdict is "valid", and the held certificate keeps only the three
	// signatures that were verified — a held signature is a verified one.
	padded := signedEntry(data, 1, code, 0, 1, 2, 3)
	padded.Cert.Sigs[3].Sig = bytes.Repeat([]byte{0x5A}, 64)
	if !coldVerdict(data, &padded) {
		t.Fatal("test premise broken: the padded certificate should pass VerifyUCert")
	}
	warm(t, n, padded)
	if got := verifies(); got != 4 {
		t.Fatalf("cold certificate sent %d signatures to Ed25519, want all 4", got)
	}
	held := n.heldCert(1, code)
	if held == nil || len(held.Sigs) != 3 {
		t.Fatalf("held certificate = %+v, want the 3 verified signatures", held)
	}
	for _, s := range held.Sigs {
		if s.Signer == 3 {
			t.Fatal("the unverified padding signature was installed")
		}
	}

	// The padding signature gains nothing from the memo: an entry that needs
	// it is refused.
	forged := signedEntry(data, 1, code, 0, 1, 3)
	forged.Cert.Sigs[2].Sig = padded.Cert.Sigs[3].Sig
	if n.acceptEntries([]wire.AnnounceEntry{forged})[0] {
		t.Fatal("an unverified signature was accepted")
	}

	// Warm, identical signatures: no crypto at all.
	v0, h0 := verifies(), hits()
	warm(t, n, signedEntry(data, 1, code, 0, 1, 2))
	if verifies() != v0 || hits() != h0+3 {
		t.Fatalf("identical certificate: %d verifications, %d memo hits; want 0 and 3",
			verifies()-v0, hits()-h0)
	}

	// Warm, another legal signer subset: only node 3's signature is new.
	v0, h0 = verifies(), hits()
	warm(t, n, signedEntry(data, 1, code, 3, 2, 1))
	if verifies() != v0+1 || hits() != h0+2 {
		t.Fatalf("different subset: %d verifications, %d memo hits; want 1 and 2",
			verifies()-v0, hits()-h0)
	}
}

// votePFrom builds the VOTE_P sender would disclose for (serial, code) — its
// real receipt share, audit path and EA root signature — carrying cert.
func votePFrom(t *testing.T, sender *Node, serial uint64, code []byte, cert wire.UCert) job {
	t.Helper()
	bd, part, row, err := sender.locate(serial, code)
	if err != nil {
		t.Fatal(err)
	}
	share, err := sender.ownShare(bd, part, row)
	if err != nil {
		t.Fatal(err)
	}
	return job{from: sender.self, msg: &wire.VoteP{
		Serial: serial, Code: code,
		ShareIndex: share.Index, ShareValue: group.ScalarBytes(share.Value),
		ShareSig: bd.ShareSig[:], SharePath: ea.SharePath(bd, part, row),
		Cert: cert,
	}}
}

// TestVotePInstallsVerifiedSignaturesOnly closes the other door into the
// ballot state: a Byzantine VC's VOTE_P whose certificate hides a garbage
// signature among Nv-fv valid ones binds the ballot (the certificate is
// valid), but the garbage must not be held — or the sender's later ACS
// payload, presenting that same garbage as one of only three signatures,
// would pass on this node's memo and fail on every cold node.
func TestVotePInstallsVerifiedSignaturesOnly(t *testing.T) {
	data, nodes := memoHosts(t, memoBallots)
	garbage := bytes.Repeat([]byte{0x5A}, 64)
	for serial := uint64(1); serial <= memoBallots; serial++ {
		code := optionCode(t, data, serial, 0)
		// The padding sits at a different position each round; signer 2's
		// slot is the garbage one.
		padded := signedEntry(data, serial, code, 0, 1, 3)
		at := int(serial) % 4
		padded.Cert.Sigs = slices.Insert(padded.Cert.Sigs, at, wire.SigEntry{Signer: 2, Sig: garbage})
		if !coldVerdict(data, &padded) {
			t.Fatal("test premise broken: the padded certificate should pass VerifyUCert")
		}
		v0 := nodes[0].Metrics().CertSigVerifies
		nodes[0].onVotePBatch([]job{
			votePFrom(t, nodes[3], serial, code, padded.Cert),
			votePFrom(t, nodes[1], serial, code, padded.Cert), // same batch: the certificate is checked once
		})
		if got := nodes[0].Metrics().CertSigVerifies - v0; got != 4 {
			t.Fatalf("ballot %d: VOTE_P batch sent %d signatures to Ed25519, want the certificate's 4, once", serial, got)
		}
		held := nodes[0].heldCert(serial, code)
		if held == nil || len(held.Sigs) != 3 {
			t.Fatalf("ballot %d: held certificate = %+v, want the 3 verified signatures", serial, held)
		}
		for _, s := range held.Sigs {
			if !sig.Verify(data.Manifest.VCPublics[s.Signer], s.Sig, endorseDomain,
				[]byte(data.Manifest.ElectionID), sig.Uint64Bytes(serial), code) {
				t.Fatalf("ballot %d: node 0 holds an unverified signature by %d", serial, s.Signer)
			}
		}

		// The follow-up: only three signatures, the garbage among them.
		forged := signedEntry(data, serial, code, 0, 1)
		forged.Cert.Sigs = slices.Insert(forged.Cert.Sigs, at%3, wire.SigEntry{Signer: 2, Sig: garbage})
		want := coldVerdict(data, &forged)
		if want {
			t.Fatal("test premise broken: two valid signatures must not make a certificate")
		}
		for i, n := range nodes[:2] { // node 0 warmed by the VOTE_P, node 1 cold
			if got := n.acceptEntries([]wire.AnnounceEntry{cloneEntry(forged)})[0]; got != want {
				t.Fatalf("ballot %d: node %d accepts the forged entry = %v, cold VerifyUCert says %v", serial, i, got, want)
			}
		}
	}
}

// TestAcceptEntriesMatchesColdVerify is the property the ACS filter rests
// on: over randomly mutated certificates, a node that holds a certificate
// for the ballot (same subset, another subset, or another code) and a node
// that holds nothing return exactly VerifyUCert's verdict.
func TestAcceptEntriesMatchesColdVerify(t *testing.T) {
	const rounds = 400
	data, nodes := memoHosts(t, rounds)
	rng := rand.New(rand.NewPCG(7, 0xCE27)) //nolint:gosec // test schedule only
	subsets := [][]int{{0, 1, 2}, {1, 2, 3}, {3, 0, 2}, {0, 1, 2, 3}}
	garbage := func() []byte {
		b := make([]byte, 64)
		for i := range b {
			b[i] = byte(rng.IntN(256))
		}
		return b
	}
	var valid, invalid int
	for r := 0; r < rounds; r++ {
		serial := uint64(r + 1)
		code := optionCode(t, data, serial, 0)
		other := optionCode(t, data, serial, 1)
		base := signedEntry(data, serial, code, subsets[rng.IntN(len(subsets))]...)

		// Hosts: identical certificate, another subset, the other code
		// (impossible among honest nodes; the memo must not care), nothing.
		warm(t, nodes[0], cloneEntry(base))
		warm(t, nodes[1], signedEntry(data, serial, code, subsets[rng.IntN(3)]...))
		warm(t, nodes[2], signedEntry(data, serial, other, 0, 1, 2))

		e := cloneEntry(base)
		sigs := &e.Cert.Sigs
		for m := rng.IntN(4); m > 0; m-- {
			switch rng.IntN(9) {
			case 0: // flip one signature byte
				s := (*sigs)[rng.IntN(len(*sigs))].Sig
				s[rng.IntN(len(s))] ^= 1 << rng.IntN(8)
			case 1: // swap two signers' labels
				i, j := rng.IntN(len(*sigs)), rng.IntN(len(*sigs))
				(*sigs)[i].Signer, (*sigs)[j].Signer = (*sigs)[j].Signer, (*sigs)[i].Signer
			case 2: // duplicate a signature entry in place of another
				(*sigs)[rng.IntN(len(*sigs))] = (*sigs)[rng.IntN(len(*sigs))]
			case 3: // certificate over the other code
				e.Cert.Code = other
			case 4: // entry claims the other code
				e.Code = other
			case 5: // prepend a garbage signature from a random signer label
				*sigs = append([]wire.SigEntry{{Signer: uint16(rng.IntN(6)), Sig: garbage()}}, *sigs...) //nolint:gosec // small
			case 6: // append a garbage signature
				*sigs = append(*sigs, wire.SigEntry{Signer: uint16(rng.IntN(6)), Sig: garbage()}) //nolint:gosec // small
			case 7: // drop a signature
				i := rng.IntN(len(*sigs))
				*sigs = append((*sigs)[:i:i], (*sigs)[i+1:]...)
			case 8: // shuffle, or move the entry to another ballot
				if rng.IntN(2) == 0 {
					rng.Shuffle(len(*sigs), func(i, j int) { (*sigs)[i], (*sigs)[j] = (*sigs)[j], (*sigs)[i] })
				} else {
					e.Serial = uint64(rng.IntN(rounds + 2))
				}
			}
			if len(*sigs) == 0 {
				break
			}
		}
		want := coldVerdict(data, &e)
		if want {
			valid++
		} else {
			invalid++
		}
		for i, n := range nodes {
			if got := n.acceptEntries([]wire.AnnounceEntry{cloneEntry(e)})[0]; got != want {
				t.Fatalf("round %d: node %d (memo state %d) says %v, cold VerifyUCert says %v\nentry: %+v",
					r, i, i, got, want, e)
			}
		}
		// Whatever the cold node installed holds verified signatures only.
		if held := nodes[3].heldCert(serial, code); held != nil {
			for _, s := range held.Sigs {
				if !sig.Verify(data.Manifest.VCPublics[s.Signer], s.Sig, endorseDomain,
					[]byte(data.Manifest.ElectionID), sig.Uint64Bytes(serial), code) {
					t.Fatalf("round %d: the cold node holds an invalid signature by %d", r, s.Signer)
				}
			}
		}
	}
	if valid < rounds/10 || invalid < rounds/10 {
		t.Fatalf("mutations are lopsided: %d valid, %d invalid", valid, invalid)
	}
}

// --- ACS reliable broadcast over hosts with mixed memo state ----------------

// rbcHarness drives three honest ACS engines by hand (FIFO delivery over an
// in-memory queue); seat 3 is the Byzantine broadcaster, played by the test:
// it answers honest node k's pull with byzPayloads[k].
type rbcHarness struct {
	t           *testing.T
	engines     []*acs.Engine
	queue       []rbcDelivery
	verdicts    []map[string][]bool // per host: payload → what Accept answered
	byzPayloads []*wire.RBCEcho
}

type rbcDelivery struct {
	from, to uint16
	frame    []byte
}

const byzSeat = 3

func payloadKey(entries []wire.AnnounceEntry) string {
	return string(wire.NewRBCEcho(0, 0, entries).Payload())
}

func newRBCHarness(t *testing.T, nodes []*Node, ballots int) *rbcHarness {
	t.Helper()
	h := &rbcHarness{t: t}
	for i := 0; i < byzSeat; i++ {
		self := uint16(i) //nolint:gosec // small
		rec := make(map[string][]bool)
		h.verdicts = append(h.verdicts, rec)
		accept := nodes[i].acceptEntries
		e, err := acs.New(acs.Config{
			N: 4, F: 1, Self: self, Ballots: uint32(ballots), //nolint:gosec // small
			Coin: consensus.NewHashCoin([]byte("rbc-memo-test")),
			Send: func(frame []byte) {
				for to := uint16(0); to < byzSeat; to++ {
					if to != self {
						h.queue = append(h.queue, rbcDelivery{from: self, to: to, frame: frame})
					}
				}
			},
			SendTo: func(to uint16, frame []byte) {
				h.queue = append(h.queue, rbcDelivery{from: self, to: to, frame: frame})
			},
			Accept: func(entries []wire.AnnounceEntry) []bool {
				v := accept(entries)
				rec[payloadKey(entries)] = v
				return v
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		h.engines = append(h.engines, e)
	}
	return h
}

// drain delivers queued frames in order until none is left.
func (h *rbcHarness) drain() {
	for len(h.queue) > 0 {
		d := h.queue[0]
		h.queue = h.queue[1:]
		msg, err := wire.Decode(d.frame)
		if err != nil {
			h.t.Fatalf("engine %d emitted a malformed frame: %v", d.from, err)
		}
		if d.to != byzSeat {
			h.engines[d.to].Handle(d.from, msg)
		} else if _, pull := msg.(*wire.RBCPull); pull && h.byzPayloads[d.from] != nil {
			h.queue = append(h.queue, rbcDelivery{from: byzSeat, to: d.from, frame: wire.Encode(h.byzPayloads[d.from])})
		}
	}
}

// finish runs the engines to their decisions and returns them.
func (h *rbcHarness) finish() [][]byte {
	h.drain()
	for i, e := range h.engines {
		if e.Decided() != 4 {
			h.t.Fatalf("engine %d decided %d of 4 instances with nothing left in flight", i, e.Decided())
		}
	}
	out := make([][]byte, len(h.engines))
	for i, e := range h.engines {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		d, err := e.Results(ctx)
		cancel()
		if err != nil {
			h.t.Fatalf("engine %d: %v", i, err)
		}
		out[i] = d
	}
	return out
}

// TestRBCByzantineBroadcasterMixedMemo: a Byzantine broadcaster's proposal
// reaches three honest engines whose hosts know different things — host 0
// holds the byte-identical certificates, host 1 holds the same ballots under
// another signer subset, host 2 holds nothing. Whatever the broadcaster
// sends, every host must filter the delivered payload exactly as a cold
// VerifyUCert would, and all three must decide the same vote set.
func TestRBCByzantineBroadcasterMixedMemo(t *testing.T) {
	type proposalFn func(t *testing.T, data *ea.ElectionData, base []wire.AnnounceEntry) []wire.AnnounceEntry
	// mutate returns a proposal whose entry for ballot `serial` went through f.
	mutate := func(serial uint64, f func(e *wire.AnnounceEntry)) proposalFn {
		return func(_ *testing.T, _ *ea.ElectionData, base []wire.AnnounceEntry) []wire.AnnounceEntry {
			out := make([]wire.AnnounceEntry, len(base))
			for i := range base {
				out[i] = cloneEntry(base[i])
				if out[i].Serial == serial {
					f(&out[i])
				}
			}
			return out
		}
	}
	honest := mutate(0, nil)
	cases := []struct {
		name string
		// proposals[k] is what the broadcaster sends to honest node k; one
		// element means the same payload for everyone.
		proposals []proposalFn
		delivers  bool
	}{
		{name: "honest payload", proposals: []proposalFn{honest}, delivers: true},
		{name: "flipped signature byte", delivers: true, proposals: []proposalFn{
			mutate(2, func(e *wire.AnnounceEntry) { e.Cert.Sigs[1].Sig[17] ^= 0x40 })}},
		{name: "swapped signers", delivers: true, proposals: []proposalFn{
			mutate(2, func(e *wire.AnnounceEntry) {
				s := e.Cert.Sigs
				s[0].Signer, s[2].Signer = s[2].Signer, s[0].Signer
			})}},
		{name: "duplicate signer", delivers: true, proposals: []proposalFn{
			mutate(2, func(e *wire.AnnounceEntry) { e.Cert.Sigs[2] = e.Cert.Sigs[0] })}},
		{name: "wrong code in the entry", delivers: true, proposals: []proposalFn{
			mutate(2, func(e *wire.AnnounceEntry) { e.Code = []byte("not-the-certified-code") })}},
		{name: "certificate relabelled to another code", delivers: true, proposals: []proposalFn{
			func(t *testing.T, data *ea.ElectionData, base []wire.AnnounceEntry) []wire.AnnounceEntry {
				other := optionCode(t, data, 2, 1)
				return mutate(2, func(e *wire.AnnounceEntry) { e.Code, e.Cert.Code = other, other })(t, data, base)
			}}},
		{name: "out-of-range ballot", delivers: true, proposals: []proposalFn{
			mutate(2, func(e *wire.AnnounceEntry) { e.Serial, e.Cert.Serial = memoBallots+5, memoBallots+5 })}},
		{name: "another valid signer subset", delivers: true, proposals: []proposalFn{
			func(t *testing.T, data *ea.ElectionData, base []wire.AnnounceEntry) []wire.AnnounceEntry {
				out := make([]wire.AnnounceEntry, len(base))
				for i, e := range base {
					out[i] = signedEntry(data, e.Serial, e.Code, 3, 1, 0)
				}
				return out
			}}},
		{name: "valid certificate padded with a forged fourth signature", delivers: true, proposals: []proposalFn{
			func(t *testing.T, data *ea.ElectionData, base []wire.AnnounceEntry) []wire.AnnounceEntry {
				return mutate(2, func(e *wire.AnnounceEntry) {
					*e = signedEntry(data, e.Serial, e.Code, 3, 0, 1, 2)
					e.Cert.Sigs[0].Sig = bytes.Repeat([]byte{0xEE}, 64)
				})(t, data, base)
			}}},
		{name: "equivocation, two of three see the same payload", delivers: true, proposals: []proposalFn{
			honest, honest,
			mutate(2, func(e *wire.AnnounceEntry) { e.Cert.Sigs[0].Sig[0] ^= 1 })}},
		{name: "equivocation, three different payloads", delivers: false, proposals: []proposalFn{
			honest,
			mutate(2, func(e *wire.AnnounceEntry) { e.Cert.Sigs[0].Sig[0] ^= 1 }),
			mutate(3, func(e *wire.AnnounceEntry) { e.Cert.Sigs[0].Sig[0] ^= 1 })}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, nodes := memoHosts(t, memoBallots)
			// Ballots 1-4 are known to the warm hosts; 5-6 only the
			// Byzantine broadcaster proposes, so the decision on them shows
			// what its delivered payload was filtered down to.
			var base, onlyByz []wire.AnnounceEntry
			for s := uint64(1); s <= 6; s++ {
				e := signedEntry(data, s, optionCode(t, data, s, 0), 0, 1, 2)
				if s <= 4 {
					base = append(base, e)
				} else {
					onlyByz = append(onlyByz, e)
				}
			}
			for _, e := range base {
				warm(t, nodes[0], cloneEntry(e))
				warm(t, nodes[1], signedEntry(data, e.Serial, e.Code, 1, 2, 3))
			}
			h := newRBCHarness(t, nodes, memoBallots)

			// The broadcaster's SEND goes out first; each honest engine pulls
			// the payload it names from the broadcaster, then ECHOes it.
			sent := make([][]wire.AnnounceEntry, byzSeat)
			h.byzPayloads = make([]*wire.RBCEcho, byzSeat)
			for k := range sent {
				fn := tc.proposals[0]
				if len(tc.proposals) > 1 {
					fn = tc.proposals[k]
				}
				sent[k] = append(fn(t, data, base), onlyByz...)
				h.byzPayloads[k] = wire.NewRBCEcho(byzSeat, byzSeat, sent[k])
				frame := wire.Encode(&wire.RBCDigest{Sender: byzSeat, Broadcaster: byzSeat, Hash: h.byzPayloads[k].Digest()})
				h.queue = append(h.queue, rbcDelivery{from: byzSeat, to: uint16(k), frame: frame}) //nolint:gosec // small
			}
			h.drain()

			// Then the honest nodes broadcast what they hold and agree.
			for i, e := range h.engines {
				if err := e.Start(wire.NewRBCEcho(0, 0, nodes[i].certifiedEntries()), nil); err != nil {
					t.Fatal(err)
				}
			}
			decisions := h.finish()

			// Delivery and filtering: every host answered for the delivered
			// payload exactly what a cold verification answers.
			delivered := sent[0]
			want := make([]bool, len(delivered))
			for i := range delivered {
				want[i] = coldVerdict(data, &delivered[i])
			}
			for i := range h.engines {
				got, ok := h.verdicts[i][payloadKey(delivered)]
				if ok != tc.delivers {
					t.Fatalf("host %d: broadcaster's payload delivered = %v, want %v", i, ok, tc.delivers)
				}
				if ok && !slices.Equal(got, want) {
					t.Fatalf("host %d filtered the payload to %v, cold verification says %v", i, got, want)
				}
			}
			for i := 1; i < len(decisions); i++ {
				if !bytes.Equal(decisions[i], decisions[0]) {
					t.Fatalf("host %d decided %v, host 0 decided %v", i, decisions[i], decisions[0])
				}
			}
			// The decision is the union of what was validly proposed: ballots
			// 1-4 by the warm hosts, and the broadcaster's valid entries iff
			// its broadcast delivered.
			wantDecision := make([]byte, memoBallots)
			for s := 1; s <= 4; s++ {
				wantDecision[s-1] = 1
			}
			if tc.delivers {
				for i, e := range delivered {
					if want[i] {
						wantDecision[e.Serial-1] = 1
					}
				}
			}
			if !bytes.Equal(decisions[0], wantDecision) {
				t.Fatalf("decided %v, want %v", decisions[0], wantDecision)
			}
			// The cold host learned every valid certificate it was shown, and
			// nothing else.
			for i, e := range delivered {
				if tc.delivers && want[i] && nodes[2].heldCert(e.Serial, e.Code) == nil {
					t.Fatalf("the cold host did not install the valid certificate of ballot %d", e.Serial)
				}
			}
		})
	}
}

// TestACSHonestRunVerifiesNoCertSignature is the regression guard of the
// consensus close phase as an exact count: in an honest four-node ACS run
// every certificate a node is shown — the four delivered proposals, which are
// one payload — is one it bound during voting, so not one signature reaches
// Ed25519, and the payload is judged once, not once per broadcaster.
func TestACSHonestRunVerifiesNoCertSignature(t *testing.T) {
	const (
		numVC      = 4
		numBallots = 24
	)
	c := newSimClusterJE(t, 1, nil, numBallots, numVC,
		transport.LinkProfile{Latency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond},
		rawStack, nil, journal.Options{}, ACSEngine)
	for b := 0; b < numBallots; b++ {
		if _, err := c.simVote(uint64(b+1), ballot.PartA, b%2, b%numVC); err != nil {
			t.Fatalf("vote %d: %v", b+1, err)
		}
	}
	// A receipt needs only Nv-fv nodes; wait until the last one is bound too.
	waitFor(t, func() bool {
		for i := 0; i < numVC; i++ {
			if len(certCodes(c.node(i))) != numBallots {
				return false
			}
		}
		return true
	})
	before := make([]Snapshot, numVC)
	for i := range before {
		before[i] = c.node(i).Metrics()
	}
	sets := runConsensusAll(t, c, 1, nil, numVC)
	for i := 0; i < numVC; i++ {
		if len(sets[i]) != numBallots {
			t.Fatalf("node %d agreed on %d ballots, want %d", i, len(sets[i]), numBallots)
		}
		after := c.node(i).Metrics()
		if d := after.CertSigVerifies - before[i].CertSigVerifies; d != 0 {
			t.Errorf("node %d verified %d certificate signatures during consensus, want 0", i, d)
		}
		// Announces carry no certificate, and every delivered proposal has
		// the one digest: Nv-fv signatures per ballot, resolved once.
		hv := c.data.Manifest.ReceiptThreshold()
		if d := after.CertSigMemoHits - before[i].CertSigMemoHits; d != int64(hv*numBallots) {
			t.Errorf("node %d resolved %d signatures from its ballot state, want %d", i, d, hv*numBallots)
		}
	}
}

// TestCertifiedEntriesInSerialOrder: two nodes that learned the same
// certificates in different orders — and over more ballots than there are
// state shards, so shard order is not serial order — propose the same bytes,
// in serial order. The ACS engine echoes a peer's proposal without pulling
// it only when its own hashes the same.
func TestCertifiedEntriesInSerialOrder(t *testing.T) {
	const ballots = 150
	data, nodes := memoHosts(t, ballots)
	var all []wire.AnnounceEntry
	for s := uint64(1); s <= ballots; s++ {
		all = append(all, signedEntry(data, s, optionCode(t, data, s, int(s%2)), 0, 1, 2))
	}
	rng := rand.New(rand.NewPCG(7, 7)) //nolint:gosec // test order only
	for _, n := range nodes[:2] {
		order := slices.Clone(all)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		warm(t, n, order...)
	}
	got := nodes[0].certifiedEntries()
	if !slices.IsSortedFunc(got, func(a, b wire.AnnounceEntry) int { return int(a.Serial) - int(b.Serial) }) {
		t.Fatal("certified entries are not in serial order")
	}
	if !bytes.Equal(wire.NewRBCEcho(0, 0, got).Payload(), wire.NewRBCEcho(0, 0, nodes[1].certifiedEntries()).Payload()) {
		t.Fatal("two nodes holding the same certificates propose different bytes")
	}
}

package ea

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"

	"ddemos/internal/ballot"
	"ddemos/internal/crypto/elgamal"
	"ddemos/internal/crypto/group"
	"ddemos/internal/crypto/shamir"
	"ddemos/internal/crypto/votecode"
	"ddemos/internal/crypto/zkp"
	"ddemos/internal/sig"
	"ddemos/internal/store"
)

// Setup runs the Election Authority: it generates all keys, ballots and
// component initialization data for the given parameters, holding the whole
// pool in memory. Ballots are processed in parallel across CPUs; with
// Params.Seed set the output is fully deterministic regardless of
// parallelism (each ballot derives its own DRBG).
//
// Setup is the materialized form of SetupStream: pools that do not fit in
// memory stream through SetupStream instead, which produces byte-identical
// per-ballot data in serial order without ever holding more than the
// reorder window.
func Setup(p Params) (*ElectionData, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ballots := make([]*ballot.Ballot, p.NumBallots)
	vcBallots := make([][]*store.BallotData, p.NumVC)
	for i := range vcBallots {
		vcBallots[i] = make([]*store.BallotData, p.NumBallots)
	}
	var bbBallots []BBBallot
	var trusteeBallots [][]TrusteeBallot
	if !p.VCOnly {
		bbBallots = make([]BBBallot, p.NumBallots)
		trusteeBallots = make([][]TrusteeBallot, p.NumTrustees)
		for i := range trusteeBallots {
			trusteeBallots[i] = make([]TrusteeBallot, p.NumBallots)
		}
	}
	sd, err := SetupStream(p, StreamOptions{}, func(e *Emission) error {
		idx := e.Serial - 1
		ballots[idx] = e.Voter
		for i := range vcBallots {
			vcBallots[i][idx] = e.VC[i]
		}
		if e.BB != nil {
			bbBallots[idx] = *e.BB
		}
		for i := range e.Trustees {
			trusteeBallots[i][idx] = e.Trustees[i]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	data := &ElectionData{
		Manifest: sd.Manifest,
		Ballots:  ballots,
		VC:       sd.VC,
		BB:       sd.BB,
		Trustees: sd.Trustees,
	}
	for i, v := range data.VC {
		v.Ballots = vcBallots[i]
	}
	if data.BB != nil {
		data.BB.Ballots = bbBallots
		for i, t := range data.Trustees {
			t.Ballots = trusteeBallots[i]
		}
	}
	return data, nil
}

// setupComponents generates everything that is O(components), not
// O(ballots): the key pairs, the manifest, the master key and its shares,
// and the slim (ballot-less) per-component initialization payloads. The
// master randomness consumption order is frozen — it is what makes seeded
// setups reproducible across the Setup and SetupStream routes.
func setupComponents(p *Params) (*StreamData, *ballotGen, error) {
	masterRnd := newRand(p.Seed, "master", 0)

	// Keys for every component (no external PKI, §III-D).
	eaKeys, err := sig.NewKeyPair(masterRnd)
	if err != nil {
		return nil, nil, err
	}
	vcKeys := make([]sig.KeyPair, p.NumVC)
	vcPubs := make([]ed25519.PublicKey, p.NumVC)
	for i := range vcKeys {
		if vcKeys[i], err = sig.NewKeyPair(masterRnd); err != nil {
			return nil, nil, err
		}
		vcPubs[i] = vcKeys[i].Public
	}
	trusteeKeys := make([]sig.KeyPair, p.NumTrustees)
	trusteePubs := make([]ed25519.PublicKey, p.NumTrustees)
	for i := range trusteeKeys {
		if trusteeKeys[i], err = sig.NewKeyPair(masterRnd); err != nil {
			return nil, nil, err
		}
		trusteePubs[i] = trusteeKeys[i].Public
	}

	manifest := Manifest{
		ElectionID:       p.ElectionID,
		Options:          append([]string(nil), p.Options...),
		NumBallots:       p.NumBallots,
		NumVC:            p.NumVC,
		NumBB:            p.NumBB,
		NumTrustees:      p.NumTrustees,
		TrusteeThreshold: p.TrusteeThreshold,
		MaxSelections:    p.MaxSelections,
		VotingStart:      p.VotingStart,
		VotingEnd:        p.VotingEnd,
		EAPublic:         eaKeys.Public,
		VCPublics:        vcPubs,
		TrusteePublics:   trusteePubs,
	}

	// Master key for vote-code encryption, shared (Nv-fv, Nv) among VC
	// nodes; H_msk authenticates it for the BB nodes.
	msk, err := votecode.NewKey(masterRnd)
	if err != nil {
		return nil, nil, err
	}
	saltMsk, err := votecode.NewSalt(masterRnd)
	if err != nil {
		return nil, nil, err
	}
	mskScalar, err := shamir.SecretToScalar(msk)
	if err != nil {
		return nil, nil, err
	}
	hv := manifest.ReceiptThreshold()
	mskShares, err := shamir.Split(mskScalar, hv, p.NumVC, masterRnd)
	if err != nil {
		return nil, nil, err
	}

	sd := &StreamData{
		Manifest: manifest,
		VC:       make([]*VCInit, p.NumVC),
	}
	for i := range sd.VC {
		sd.VC[i] = &VCInit{
			Manifest: manifest,
			Index:    i,
			Private:  vcKeys[i].Private,
			Msk: MskShare{
				Index: mskShares[i].Index,
				Value: mskShares[i].Value,
				Sig:   SignMskShare(eaKeys.Private, p.ElectionID, mskShares[i]),
			},
		}
	}
	if !p.VCOnly {
		sd.BB = &BBInit{Manifest: manifest}
		sd.BB.HMsk = votecode.KeyCheck(msk, saltMsk)
		copy(sd.BB.SaltMsk[:], saltMsk)
		sd.Trustees = make([]*TrusteeInit, p.NumTrustees)
		for i := range sd.Trustees {
			sd.Trustees[i] = &TrusteeInit{
				Manifest: manifest,
				Index:    i,
				Private:  trusteeKeys[i].Private,
			}
		}
	}

	gen := &ballotGen{
		p:       p,
		ck:      manifest.CommitmentKey(),
		eaPriv:  eaKeys.Private,
		msk:     msk,
		hv:      hv,
		m:       len(p.Options),
		numVC:   p.NumVC,
		full:    !p.VCOnly,
		numT:    p.NumTrustees,
		hasSeed: p.Seed != nil,
	}
	return sd, gen, nil
}

// newRand builds the randomness source for a scope: a deterministic DRBG if
// a seed is set, crypto/rand otherwise.
func newRand(seed []byte, scope string, serial uint64) io.Reader {
	if seed == nil {
		return rand.Reader
	}
	buf := make([]byte, 0, len(seed)+len(scope)+8)
	buf = append(buf, seed...)
	buf = append(buf, scope...)
	buf = binary.BigEndian.AppendUint64(buf, serial)
	return group.NewDRBG(buf)
}

type ballotGen struct {
	p       *Params
	ck      elgamal.CommitmentKey
	eaPriv  ed25519.PrivateKey
	msk     []byte
	hv      int
	m       int
	numVC   int
	full    bool
	numT    int
	hasSeed bool
}

// one generates ballot `serial` and all derived per-component data as a
// self-contained Emission. It shares only read-only state (the commitment
// key's table is built once, under sync.Once), so it is safe to call
// concurrently.
func (g *ballotGen) one(serial uint64) (*Emission, error) {
	var rnd io.Reader
	if g.hasSeed {
		rnd = newRand(g.p.Seed, "ballot", serial)
	} else {
		rnd = rand.Reader
	}
	b := &ballot.Ballot{Serial: serial}
	vcData := make([]*store.BallotData, g.numVC)
	for i := range vcData {
		vcData[i] = &store.BallotData{Serial: serial}
	}
	var bbBallot BBBallot
	var trusteeBallots []TrusteeBallot
	full := g.full
	if full {
		bbBallot.Serial = serial
		trusteeBallots = make([]TrusteeBallot, g.numT)
		for i := range trusteeBallots {
			trusteeBallots[i].Serial = serial
		}
	}

	seenCodes := make(map[string]bool, 2*g.m)
	for part := 0; part < 2; part++ {
		lines := make([]ballot.Line, g.m)
		for opt := 0; opt < g.m; opt++ {
			code, err := votecode.NewCode(rnd)
			if err != nil {
				return nil, err
			}
			for seenCodes[string(code)] { // enforce per-ballot uniqueness
				if code, err = votecode.NewCode(rnd); err != nil {
					return nil, err
				}
			}
			seenCodes[string(code)] = true
			receipt, err := votecode.NewReceipt(rnd)
			if err != nil {
				return nil, err
			}
			lines[opt] = ballot.Line{VoteCode: code, Option: g.p.Options[opt], Receipt: receipt}
		}
		// Shuffle rows so BB position leaks nothing about the option.
		perm, err := randPerm(rnd, g.m)
		if err != nil {
			return nil, err
		}
		mRows := g.m
		for i := range vcData {
			vcData[i].Lines[part] = make([]store.Line, mRows)
		}
		var bbRows []BBRow
		if full {
			bbRows = make([]BBRow, mRows)
		}
		for row := 0; row < mRows; row++ {
			optIdx := perm[row]
			line := &lines[optIdx]
			salt, err := votecode.NewSalt(rnd)
			if err != nil {
				return nil, err
			}
			hash := votecode.HashCommit(line.VoteCode, salt)

			// Receipt sharing (Nv-fv, Nv); the shares are signed per node
			// once the ballot is complete.
			rScalar, err := shamir.SecretToScalar(line.Receipt)
			if err != nil {
				return nil, err
			}
			rShares, err := shamir.Split(rScalar, g.hv, g.numVC, rnd)
			if err != nil {
				return nil, err
			}
			for i := range vcData {
				sl := &vcData[i].Lines[part][row]
				sl.Hash = hash
				copy(sl.Salt[:], salt)
				copy(sl.Share[:], group.ScalarBytes(rShares[i].Value))
			}

			if !full {
				continue
			}
			// BB payload: encrypted code, option-encoding commitment, ZK
			// first moves.
			encCode, err := votecode.Encrypt(g.msk, line.VoteCode, rnd)
			if err != nil {
				return nil, err
			}
			proved, err := zkp.ProveRow(g.ck, g.m, optIdx, rnd)
			if err != nil {
				return nil, err
			}
			bbRows[row] = BBRow{
				EncCode:    encCode,
				Commitment: proved.Commitment,
				BitCommits: proved.BitCommits,
				SumCommit:  proved.SumCommit,
			}

			// Trustee shares: openings and proof coefficients.
			nt, ht := g.p.NumTrustees, g.p.TrusteeThreshold
			tRows := make([]TrusteeRow, nt)
			for ti := range tRows {
				tRows[ti] = TrusteeRow{
					MShares:   make([]*big.Int, g.m),
					RShares:   make([]*big.Int, g.m),
					BitCoeffs: make([]zkp.BitCoeffs, g.m),
				}
			}
			for col := 0; col < g.m; col++ {
				mShares, err := shamir.Split(proved.Opening.Ms[col], ht, nt, rnd)
				if err != nil {
					return nil, err
				}
				rShares, err := shamir.Split(proved.Opening.Rs[col], ht, nt, rnd)
				if err != nil {
					return nil, err
				}
				cfShares, err := zkp.ShareBitCoeffs(proved.BitCoeffs[col], ht, nt, rnd)
				if err != nil {
					return nil, err
				}
				for ti := 0; ti < nt; ti++ {
					tRows[ti].MShares[col] = mShares[ti].Value
					tRows[ti].RShares[col] = rShares[ti].Value
					tRows[ti].BitCoeffs[col] = cfShares[ti]
				}
			}
			sumShares, err := zkp.ShareSumCoeffs(proved.SumCoeffs, ht, nt, rnd)
			if err != nil {
				return nil, err
			}
			for ti := 0; ti < nt; ti++ {
				tRows[ti].SumCoeffs = sumShares[ti]
			}
			for ti := range trusteeBallots {
				if trusteeBallots[ti].Parts[part] == nil {
					trusteeBallots[ti].Parts[part] = make([]TrusteeRow, mRows)
				}
				trusteeBallots[ti].Parts[part][row] = tRows[ti]
			}
		}
		if full {
			bbBallot.Parts[part] = bbRows
		}
		b.Parts[part] = ballot.Part{Lines: lines}
	}
	// One signature per node over the Merkle root of its 2m shares. Ed25519
	// signing draws no randomness, so where it happens does not change what
	// a seeded setup reads from its DRBG.
	for i, bd := range vcData {
		copy(bd.ShareSig[:], SignReceiptShare(g.eaPriv, g.p.ElectionID, serial, uint32(i)+1, ShareRoot(bd))) //nolint:gosec // i < 64
	}

	e := &Emission{Serial: serial, Voter: b, VC: vcData}
	if full {
		e.BB = &bbBallot
		e.Trustees = trusteeBallots
	}
	return e, nil
}

// randPerm is a Fisher–Yates shuffle driven by the setup randomness source.
func randPerm(rnd io.Reader, n int) ([]int, error) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var buf [8]byte
	for i := n - 1; i > 0; i-- {
		if _, err := io.ReadFull(rnd, buf[:]); err != nil {
			return nil, fmt.Errorf("ea: shuffling: %w", err)
		}
		j := int(binary.BigEndian.Uint64(buf[:]) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm, nil
}

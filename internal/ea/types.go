// Package ea implements the Election Authority of §III-D: the setup-only
// component that generates every ballot, every key pair and the
// initialization data of all VC nodes, BB nodes and trustees, and is then
// destroyed. Setup returns plain data structures; nothing of the EA's
// internal state (the master key, vote codes in clear, commitment openings,
// proof witnesses) survives outside the per-component payloads that are
// supposed to hold them.
package ea

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/big"
	"time"

	"ddemos/internal/ballot"
	"ddemos/internal/crypto/elgamal"
	"ddemos/internal/crypto/group"
	"ddemos/internal/crypto/shamir"
	"ddemos/internal/crypto/zkp"
	"ddemos/internal/sig"
	"ddemos/internal/store"
)

// Params configures an election.
type Params struct {
	// ElectionID is the globally unique election identifier; the ElGamal
	// commitment key and consensus coin are derived from it.
	ElectionID string
	// Options are the m election options, in canonical (manifest) order.
	Options []string
	// NumBallots is n, the number of eligible voters.
	NumBallots int
	// NumVC is Nv. The tolerated Byzantine VC nodes are fv = ⌊(Nv-1)/3⌋.
	NumVC int
	// NumBB is Nb; fb = ⌊(Nb-1)/2⌋ may be Byzantine.
	NumBB int
	// NumTrustees is Nt.
	NumTrustees int
	// TrusteeThreshold is ht, the number of honest trustees required to
	// produce the tally. Defaults to ⌊Nt/2⌋+1.
	TrusteeThreshold int
	// MaxSelections is k for k-out-of-m elections (paper §VI future work);
	// defaults to 1.
	MaxSelections int
	// VotingStart and VotingEnd delimit election hours.
	VotingStart, VotingEnd time.Time
	// VCOnly skips the BB/trustee cryptographic payload (commitments,
	// proofs, trustee shares), producing only what vote collection needs.
	// Used by the vote-collection-only benchmarks (Fig. 4, 5a, 5b).
	VCOnly bool
	// Seed, if non-nil, makes setup deterministic (tests, reproducible
	// benchmarks). Production elections must leave it nil to use
	// crypto/rand.
	Seed []byte
}

// FaultyVC returns fv = ⌊(Nv-1)/3⌋.
func (p *Params) FaultyVC() int { return (p.NumVC - 1) / 3 }

// FaultyBB returns fb = ⌊(Nb-1)/2⌋.
func (p *Params) FaultyBB() int { return (p.NumBB - 1) / 2 }

// Validate checks parameter consistency and fills defaults.
func (p *Params) Validate() error {
	if p.ElectionID == "" {
		return errors.New("ea: ElectionID is required")
	}
	if len(p.Options) < 2 {
		return fmt.Errorf("ea: need at least 2 options, have %d", len(p.Options))
	}
	if p.NumBallots < 1 {
		return errors.New("ea: need at least one ballot")
	}
	if p.NumVC < 4 {
		return fmt.Errorf("ea: need at least 4 VC nodes for fv>=1 (have %d)", p.NumVC)
	}
	if p.NumVC > 64 {
		return errors.New("ea: at most 64 VC nodes supported")
	}
	if p.NumBB < 1 {
		return errors.New("ea: need at least one BB node")
	}
	if p.NumTrustees < 1 {
		return errors.New("ea: need at least one trustee")
	}
	if p.TrusteeThreshold == 0 {
		p.TrusteeThreshold = p.NumTrustees/2 + 1
	}
	if p.TrusteeThreshold < 1 || p.TrusteeThreshold > p.NumTrustees {
		return fmt.Errorf("ea: trustee threshold %d out of range [1,%d]", p.TrusteeThreshold, p.NumTrustees)
	}
	if p.MaxSelections == 0 {
		p.MaxSelections = 1
	}
	if p.MaxSelections < 1 || p.MaxSelections > len(p.Options) {
		return fmt.Errorf("ea: max selections %d out of range [1,%d]", p.MaxSelections, len(p.Options))
	}
	if !p.VotingEnd.After(p.VotingStart) {
		return errors.New("ea: voting end must be after start")
	}
	return nil
}

// Manifest is the public election description, identical on every BB node.
type Manifest struct {
	ElectionID       string
	Options          []string
	NumBallots       int
	NumVC            int
	NumBB            int
	NumTrustees      int
	TrusteeThreshold int
	MaxSelections    int
	VotingStart      time.Time
	VotingEnd        time.Time

	EAPublic       ed25519.PublicKey
	VCPublics      []ed25519.PublicKey
	TrusteePublics []ed25519.PublicKey
}

// FaultyVC returns fv.
func (m *Manifest) FaultyVC() int { return (m.NumVC - 1) / 3 }

// FaultyBB returns fb.
func (m *Manifest) FaultyBB() int { return (m.NumBB - 1) / 2 }

// ReceiptThreshold returns Nv - fv, the shares needed to reconstruct a
// receipt (and the endorsements needed for a UCERT).
func (m *Manifest) ReceiptThreshold() int { return m.NumVC - m.FaultyVC() }

// CommitmentKey re-derives the election's option-encoding commitment key.
func (m *Manifest) CommitmentKey() elgamal.CommitmentKey {
	return elgamal.DeriveCommitmentKey(m.ElectionID)
}

// OptionIndex returns the manifest position of an option name.
func (m *Manifest) OptionIndex(option string) (int, error) {
	for i, o := range m.Options {
		if o == option {
			return i, nil
		}
	}
	return 0, fmt.Errorf("ea: option %q not in manifest", option)
}

// MskShare is one VC node's share of the master key, signed by the EA.
type MskShare struct {
	Index uint32
	Value *big.Int
	Sig   []byte
}

// VCInit is the initialization payload for one Vote Collector node.
type VCInit struct {
	Manifest Manifest
	// Index is the node's 0-based index; its share index is Index+1.
	Index   int
	Private ed25519.PrivateKey
	Msk     MskShare
	// LinkKeys[j] is the 32-byte key this node shares with VC node j for
	// authenticating their link (transport.NewAuthenticated); the own entry
	// is nil. Node j's payload holds the same key at index Index.
	LinkKeys [][]byte
	// Ballots is the node's ballot store content (hash commitments, salts,
	// receipt shares), rows in the same shuffled order as the BB. Legacy
	// whole-pool payloads carry it inline; segment-emitting setups leave it
	// nil and set BallotsDir instead.
	Ballots []*store.BallotData
	// BallotsDir, when non-empty, points at a pre-built segment directory
	// (store.OpenSegmented layout) holding the node's ballot pool, so the
	// VC boots without ever decoding the pool into memory.
	BallotsDir string
}

// BBRow is one ⟨encrypted vote code, payload⟩ tuple on the shuffled list of
// a ballot part (§III-D BB initialization data).
type BBRow struct {
	// EncCode is the AES-128-CBC$ encryption of the row's vote code.
	EncCode []byte
	// Commitment element-wise encrypts the unit vector of the row's option.
	Commitment elgamal.VectorCiphertext
	// BitCommits are the ZK first moves proving each vector element is a
	// bit; SumCommit proves the elements sum to one.
	BitCommits []zkp.BitCommit
	SumCommit  zkp.SumCommit
}

// BBBallot is the BB payload for one ballot.
type BBBallot struct {
	Serial uint64
	Parts  [2][]BBRow
}

// BBInit is the (identical) initialization payload of every BB node.
type BBInit struct {
	Manifest Manifest
	// HMsk = SHA256(msk || SaltMsk) authenticates the reconstructed master
	// key.
	HMsk    [32]byte
	SaltMsk [8]byte
	// Ballots[i] holds serial i+1.
	Ballots []BBBallot
}

// TrusteeRow holds one trustee's shares for one BB row: the shares of the
// commitment opening (message and randomness per vector element) and the
// shares of the ZK final-move coefficients.
type TrusteeRow struct {
	MShares   []*big.Int
	RShares   []*big.Int
	BitCoeffs []zkp.BitCoeffs
	SumCoeffs zkp.SumCoeffs
}

// TrusteeBallot is one trustee's shares for one ballot.
type TrusteeBallot struct {
	Serial uint64
	Parts  [2][]TrusteeRow
}

// TrusteeInit is the initialization payload for one trustee.
type TrusteeInit struct {
	Manifest Manifest
	// Index is the trustee's 0-based index; its share index is Index+1.
	Index   int
	Private ed25519.PrivateKey
	Ballots []TrusteeBallot
}

// ElectionData is everything Setup produces. Ballots go to voters over the
// out-of-scope secure distribution channel; the rest initializes the system
// components. After distributing these payloads the EA must be destroyed.
type ElectionData struct {
	Manifest Manifest
	Ballots  []*ballot.Ballot
	VC       []*VCInit
	BB       *BBInit
	Trustees []*TrusteeInit
}

// Receipt share signature binding. The EA signs, per ballot, one Merkle
// root: the root over the Nv nodes' share roots, each of those the root over
// a node's receipt shares of the ballot with every leaf bound to its line's
// hash commitment (sharetree.go). Any VC node can so verify a disclosed
// share against its own store (§V: "VSS with honest dealer").
const (
	receiptShareDomain = "ddemos/v1/receipt-ballot-root"
	mskShareDomain     = "ddemos/v1/msk-share"
)

// ReceiptShareDomain exposes the receipt-share signature domain for batch
// verification (sig.VerifyMany) in the VC message pipeline.
const ReceiptShareDomain = receiptShareDomain

// rootParts is the signed-parts layout of a ballot-root signature: the one
// source for SignReceiptShare, VerifyReceiptShare and ReceiptShareItem, so
// the single-message and batch verification paths cannot desynchronize.
func rootParts(electionID string, serial uint64, root [32]byte) [][]byte {
	return [][]byte{[]byte(electionID), sig.Uint64Bytes(serial), root[:]}
}

// ReceiptShareItem builds the sig.VerifyMany item for the signature over
// ballot serial's root, the root a disclosed share folds up to
// (FoldSharePath), letting VC nodes validate a batch of shares in one pass.
func ReceiptShareItem(pub ed25519.PublicKey, sigBytes []byte, electionID string, serial uint64, root [32]byte) sig.Item {
	return sig.Item{Pub: pub, Sig: sigBytes, Parts: rootParts(electionID, serial, root)}
}

// SignReceiptShare produces the EA signature over the root of ballot
// serial's receipt shares.
func SignReceiptShare(priv ed25519.PrivateKey, electionID string, serial uint64, root [32]byte) []byte {
	return sig.Sign(priv, receiptShareDomain, rootParts(electionID, serial, root)...)
}

// VerifyReceiptShare checks a ballot-root signature.
func VerifyReceiptShare(pub ed25519.PublicKey, sigBytes []byte, electionID string, serial uint64, root [32]byte) bool {
	return sig.Verify(pub, sigBytes, receiptShareDomain, rootParts(electionID, serial, root)...)
}

// mskParts is the signed-parts layout of a master-key share signature. Its
// zero serial and empty third part are fixed: they are in every signature
// the EA has issued over a master-key share.
func mskParts(electionID string, share shamir.Share) [][]byte {
	return [][]byte{
		[]byte(electionID), sig.Uint64Bytes(0), nil,
		sig.Uint64Bytes(uint64(share.Index)), group.ScalarBytes(share.Value),
	}
}

// SignMskShare produces the EA signature for a master-key share.
func SignMskShare(priv ed25519.PrivateKey, electionID string, share shamir.Share) []byte {
	return sig.Sign(priv, mskShareDomain, mskParts(electionID, share)...)
}

// VerifyMskShare checks a master-key share signature.
func VerifyMskShare(pub ed25519.PublicKey, sigBytes []byte, electionID string, share shamir.Share) bool {
	return sig.Verify(pub, sigBytes, mskShareDomain, mskParts(electionID, share)...)
}

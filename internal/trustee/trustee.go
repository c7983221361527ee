// Package trustee implements the trustees of §III-H: the Nt share-holding
// parties who, after the election, read the agreed vote set from the
// Bulletin Board (by majority), validate it, and jointly produce — without
// ever reconstructing any secret locally —
//
//   - the openings of every audit row (unused ballot parts and both parts
//     of unvoted ballots),
//   - the final moves of the zero-knowledge proofs for every used part
//     (under the voter-coin challenge), and
//   - their share T_ℓ of the opening of the homomorphic tally.
//
// Any ht honest trustees suffice; fewer than ht shares reveal nothing.
package trustee

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"

	"ddemos/internal/bb"
	"ddemos/internal/crypto/group"
	"ddemos/internal/crypto/zkp"
	"ddemos/internal/ea"
	"ddemos/internal/parallel"
	"ddemos/internal/sig"
)

// Byzantine selects trustee fault injection for tests.
type Byzantine int

// Trustee behaviours.
const (
	// Honest follows the protocol.
	Honest Byzantine = iota
	// GarbageShares posts random-looking shares under a valid signature
	// (the attack the BB blame protocol must pin on this trustee).
	GarbageShares
	// Equivocate posts the honest shares to even-indexed BB nodes and a
	// differently-signed corrupted post to odd-indexed ones — the strongest
	// per-trustee attack, since no single node sees an invalid signature.
	Equivocate
)

// Trustee is one trustee.
type Trustee struct {
	init *ea.TrusteeInit
	byz  Byzantine
}

// New builds a trustee from its initialization data.
func New(init *ea.TrusteeInit) (*Trustee, error) {
	if init == nil {
		return nil, errors.New("trustee: missing init data")
	}
	return &Trustee{init: init}, nil
}

// SetByzantine enables fault injection (tests only).
func (t *Trustee) SetByzantine(b Byzantine) { t.byz = b }

// Index returns the trustee's 0-based index.
func (t *Trustee) Index() int { return t.init.Index }

// ComputePost reads the election outcome from the BB (majority) and
// produces this trustee's post.
func (t *Trustee) ComputePost(reader *bb.Reader) (*bb.TrusteePost, error) {
	cast, err := reader.Cast()
	if err != nil {
		return nil, fmt.Errorf("trustee %d: reading cast data: %w", t.init.Index, err)
	}
	return t.post(cast)
}

// post derives the trustee's contribution from the published cast data.
// Ballots are independent, so the per-ballot work runs in parallel; the
// merge happens in ballot order, keeping the post byte-identical to a
// sequential computation (TestTrusteePostIsDeterministic relies on this).
func (t *Trustee) post(cast *bb.CastData) (*bb.TrusteePost, error) {
	man := &t.init.Manifest
	m := len(man.Options)
	master := zkp.MasterChallenge(man.ElectionID, cast.Coins)

	// Validate the vote set the way §III-H prescribes, sharing the exact
	// helper BB nodes use so trustees and BB can never diverge on which
	// rows enter the tally.
	used := bb.UsedParts(man.MaxSelections, cast.Marks)
	marks := make(map[uint64][]bb.CastMark, len(cast.Marks))
	for _, mk := range cast.Marks {
		marks[mk.Serial] = append(marks[mk.Serial], mk)
	}

	type ballotOut struct {
		openings []bb.OpeningShare
		proofs   []bb.ProofFinalShare
		tallyMs  []*big.Int
		tallyRs  []*big.Int
	}
	outs := make([]ballotOut, len(t.init.Ballots))
	parallel.Run(0, len(t.init.Ballots), func(bi int) { // one worker per CPU
		out := &outs[bi]
		tb := &t.init.Ballots[bi]
		usedPart, voted := used[tb.Serial]
		for part := 0; part < 2; part++ {
			rows := tb.Parts[part]
			if voted && uint8(part) == usedPart { //nolint:gosec // part<2
				// Used part: finalize proofs for every row.
				for row := range rows {
					tr := &rows[row]
					bits := make([]zkp.BitFinal, m)
					for col := 0; col < m; col++ {
						c := zkp.DeriveChallenge(master, tb.Serial, uint8(part), row, col) //nolint:gosec // part<2
						bits[col] = tr.BitCoeffs[col].Finalize(c)
					}
					cSum := zkp.DeriveChallenge(master, tb.Serial, uint8(part), row, zkp.SumProofCol) //nolint:gosec // part<2
					out.proofs = append(out.proofs, bb.ProofFinalShare{
						Serial: tb.Serial, Part: uint8(part), Row: row, //nolint:gosec // part<2
						Bits: bits, Sum: tr.SumCoeffs.Finalize(cSum),
					})
				}
				// Tally share: add the cast rows' opening shares (additive
				// homomorphism of the secret sharing, §III-B).
				for _, mk := range marks[tb.Serial] {
					tr := &rows[mk.Row]
					if out.tallyMs == nil {
						out.tallyMs, out.tallyRs = zeroScalars(m), zeroScalars(m)
					}
					for col := 0; col < m; col++ {
						out.tallyMs[col] = group.AddScalar(out.tallyMs[col], tr.MShares[col])
						out.tallyRs[col] = group.AddScalar(out.tallyRs[col], tr.RShares[col])
					}
				}
				continue
			}
			// Audit part: disclose opening shares.
			for row := range rows {
				tr := &rows[row]
				out.openings = append(out.openings, bb.OpeningShare{
					Serial: tb.Serial, Part: uint8(part), Row: row, //nolint:gosec // part<2
					Ms: cloneScalars(tr.MShares), Rs: cloneScalars(tr.RShares),
				})
			}
		}
	})

	post := &bb.TrusteePost{
		Trustee:    t.init.Index,
		ShareIndex: uint32(t.init.Index) + 1, //nolint:gosec // small
		TallyMs:    zeroScalars(m),
		TallyRs:    zeroScalars(m),
	}
	for bi := range outs {
		out := &outs[bi]
		post.Openings = append(post.Openings, out.openings...)
		post.Proofs = append(post.Proofs, out.proofs...)
		if out.tallyMs != nil {
			for col := 0; col < m; col++ {
				post.TallyMs[col] = group.AddScalar(post.TallyMs[col], out.tallyMs[col])
				post.TallyRs[col] = group.AddScalar(post.TallyRs[col], out.tallyRs[col])
			}
		}
	}

	if t.byz == GarbageShares {
		// The perturbation must be trustee-dependent, as genuinely garbage
		// shares would be: with a shared constant, two garbage trustees'
		// deviations can cancel under Lagrange coefficients (e.g. λ₁=+2,
		// λ₃=−2 in the subset {1,3,4}), making the pair indistinguishable
		// from honest — a collusion the blame protocol explicitly does not
		// defend against (see DESIGN.md).
		delta := garbageDelta(t.init.Index)
		for i := range post.TallyMs {
			post.TallyMs[i] = group.AddScalar(post.TallyMs[i], delta)
		}
		if len(post.Openings) > 0 {
			post.Openings[0].Ms[0] = group.AddScalar(post.Openings[0].Ms[0], delta)
		}
	}

	t.signPost(post)
	return post, nil
}

// garbageDelta derives a pseudorandom per-trustee perturbation scalar.
func garbageDelta(index int) *big.Int {
	h := sha256.Sum256([]byte(fmt.Sprintf("ddemos/test/garbage-shares/%d", index)))
	return new(big.Int).Mod(new(big.Int).SetBytes(h[:]), group.Order())
}

func (t *Trustee) signPost(post *bb.TrusteePost) {
	hash := bb.HashPost(t.init.Manifest.ElectionID, post)
	post.Sig = sig.Sign(t.init.Private, "ddemos/v1/trustee-post", hash[:])
}

// equivocatePost builds the corrupted twin an Equivocate trustee sends to
// odd-indexed BB nodes: same shape (so it passes ingress validation),
// perturbed shares, fresh valid signature.
func (t *Trustee) equivocatePost(honest *bb.TrusteePost) *bb.TrusteePost {
	alt := *honest
	alt.TallyMs = cloneScalars(honest.TallyMs)
	alt.TallyMs[0] = group.AddScalar(alt.TallyMs[0], big.NewInt(13))
	if len(honest.Openings) > 0 {
		alt.Openings = append([]bb.OpeningShare(nil), honest.Openings...)
		o := alt.Openings[0]
		o.Ms = cloneScalars(o.Ms)
		o.Ms[0] = group.AddScalar(o.Ms[0], big.NewInt(13))
		alt.Openings[0] = o
	}
	t.signPost(&alt)
	return &alt
}

// PublishTo is the one way a trustee publishes, in ddemos-trustee and
// core.Cluster alike: it computes the post once and submits it to every
// board. It fails before submitting anything when the cast data cannot be
// read; otherwise errs[i] is board i's refusal, nil when board i took the
// post.
func (t *Trustee) PublishTo(reader *bb.Reader, boards []bb.Submitter) (errs []error, err error) {
	post, err := t.ComputePost(reader)
	if err != nil {
		return nil, err
	}
	body := bb.EncodeTrusteePost(post)
	var alt []byte
	if t.byz == Equivocate {
		alt = bb.EncodeTrusteePost(t.equivocatePost(post))
	}
	errs = make([]error, len(boards))
	for i, b := range boards {
		p := body
		if alt != nil && i%2 == 1 {
			p = alt
		}
		if err := b.Submit(bb.KindTrusteePost, p); err != nil {
			errs[i] = err
		}
	}
	return errs, nil
}

func zeroScalars(n int) []*big.Int {
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = new(big.Int)
	}
	return out
}

func cloneScalars(in []*big.Int) []*big.Int {
	out := make([]*big.Int, len(in))
	for i, v := range in {
		out[i] = new(big.Int).Set(v)
	}
	return out
}

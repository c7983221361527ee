package bb

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"

	"ddemos/internal/crypto/zkp"
	"ddemos/internal/ea"
	"ddemos/internal/journal"
	"ddemos/internal/sig"
)

// OpeningShare is one trustee's share of one row's commitment opening
// (unused ballot parts and unvoted ballots get opened, §III-H).
type OpeningShare struct {
	Serial uint64
	Part   uint8
	Row    int
	Ms     []*big.Int // message shares, one per vector element
	Rs     []*big.Int // randomness shares
}

// ProofFinalShare is one trustee's share of the ZK final moves for one row
// of a used ballot part.
type ProofFinalShare struct {
	Serial uint64
	Part   uint8
	Row    int
	Bits   []zkp.BitFinal
	Sum    zkp.SumFinal
}

// TrusteePost is everything one trustee submits to each BB node after the
// election: opening shares for audit rows, final-move shares for used
// parts, and its share T_ℓ of the homomorphic tally opening.
type TrusteePost struct {
	Trustee    int    // 0-based index
	ShareIndex uint32 // Trustee + 1
	Openings   []OpeningShare
	Proofs     []ProofFinalShare
	TallyMs    []*big.Int // per option: share of Σ messages
	TallyRs    []*big.Int // per option: share of Σ randomness
	Sig        []byte
}

const trusteePostDomain = "ddemos/v1/trustee-post"

// OpenedRow is a published, reconstructed commitment opening for an audit
// row, including the option it encodes.
type OpenedRow struct {
	Serial   uint64
	Part     uint8
	Row      int
	Ms       []*big.Int
	Rs       []*big.Int
	HotIndex int // option index encoded by the unit vector
}

// ProvenRow is a published, completed ZK proof for a used-part row: the
// final moves the trustees' shares combine to, in a share's layout.
type ProvenRow = ProofFinalShare

// Result is the final election outcome published by each BB node.
type Result struct {
	// Counts[i] is the tally of Manifest.Options[i].
	Counts []int64
	// TallyMs/TallyRs open the homomorphic sum of the cast commitments.
	TallyMs []*big.Int
	TallyRs []*big.Int
	// Openings cover every audit row (unused parts, unvoted ballots).
	Openings []OpenedRow
	// Proofs cover every row of every used part.
	Proofs []ProvenRow
}

// SubmitTrusteePost verifies and stores a trustee's post (see acceptPost).
func (n *Node) SubmitTrusteePost(p *TrusteePost) error {
	return n.Submit(KindTrusteePost, EncodeTrusteePost(p))
}

// acceptPost verifies and stores an encoded trustee post. Signature and
// structural validation run outside n.mu, and the expensive combination
// runs in a background worker (see combine.go), so readers and later
// submissions never stall behind EC math: the lock is held only to store
// the post and kick the worker.
func (n *Node) acceptPost(b []byte) error {
	reject := func(err error) error {
		n.metrics.PostsRejected.Add(1)
		return err
	}
	p, body, err := decodeTrusteePost(b)
	if err != nil {
		return reject(err)
	}
	man := &n.init.Manifest
	if err := checkPost(man, p); err != nil {
		return reject(err)
	}
	hash := hashPostBody(man.ElectionID, body)
	if !sig.Verify(man.TrusteePublics[p.Trustee], p.Sig, trusteePostDomain, hash[:]) {
		return reject(fmt.Errorf("%w: bad trustee signature", ErrBadSubmission))
	}
	n.mu.Lock()
	used := n.usedParts
	ready := n.cast != nil
	n.mu.Unlock()
	if !ready {
		return fmt.Errorf("%w: cast data not published yet", ErrNotReady)
	}
	// Completeness validation against the published cast data (§III-H): a
	// signed post missing required shares is rejected at ingress, so the
	// combine worker can assume every stored post is shape-complete.
	idx, err := n.indexPost(p, used)
	if err != nil {
		return reject(err)
	}
	rec := append(journal.Header(bbRecPost, uint64(p.Trustee)), b...) //nolint:gosec // validated index
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	it := n.postRecs[p.Trustee]
	switch {
	case it == nil:
		it = &accepted{rec: rec}
		n.posts[p.Trustee], n.postRecs[p.Trustee], n.shareIdx[p.Trustee] = p, it, idx
		n.metrics.PostsAccepted.Add(1)
		n.kickCombineLocked()
	case !bytes.Equal(it.rec, rec):
		// The first accepted post per trustee is pinned. A duplicate with
		// different bytes is equivocation — rejected loudly, never silently
		// swallowed — while a byte-identical resend is acked (and, under
		// Strict, used to re-attempt a failed journal append).
		n.metrics.PostEquivocations.Add(1)
		n.mu.Unlock()
		return reject(fmt.Errorf("%w: trustee %d equivocated on its post", ErrBadSubmission, p.Trustee))
	}
	return n.settleLocked(it)
}

// combineKey addresses one row of one ballot part.
type combineKey struct {
	serial uint64
	part   uint8
	row    int
}

// postShares indexes one post's shares by row, precomputed at ingress so
// combine attempts never scan the post slices.
type postShares struct {
	open  map[combineKey]*OpeningShare
	proof map[combineKey]*ProofFinalShare
}

// checkPost rejects a post whose indices or vector widths are not the
// manifest's (the decoder has already ruled out missing scalars).
func checkPost(man *ea.Manifest, p *TrusteePost) error {
	m := len(man.Options)
	if p.Trustee < 0 || p.Trustee >= man.NumTrustees || p.ShareIndex != uint32(p.Trustee)+1 { //nolint:gosec // small
		return fmt.Errorf("%w: bad trustee or share index", ErrBadSubmission)
	}
	if len(p.TallyMs) != m || len(p.TallyRs) != m {
		return fmt.Errorf("%w: tally share arity", ErrBadSubmission)
	}
	for i := range p.Openings {
		if o := &p.Openings[i]; len(o.Ms) != m || len(o.Rs) != m {
			return fmt.Errorf("%w: opening share arity at serial %d", ErrBadSubmission, o.Serial)
		}
	}
	for i := range p.Proofs {
		if pf := &p.Proofs[i]; len(pf.Bits) != m {
			return fmt.Errorf("%w: proof share arity at serial %d", ErrBadSubmission, pf.Serial)
		}
	}
	return nil
}

// ValidateResultShape rejects a Result — replayed from a journal, or read
// off a board by an auditor — whose vectors are not the manifest's m wide,
// the only shapes that could panic its consumers.
func ValidateResultShape(res *Result, m int) error {
	if len(res.Counts) != m || len(res.TallyMs) != m || len(res.TallyRs) != m {
		return errors.New("tally arity")
	}
	for i := range res.Openings {
		if o := &res.Openings[i]; len(o.Ms) != m || len(o.Rs) != m {
			return errors.New("opening arity")
		}
	}
	for i := range res.Proofs {
		if len(res.Proofs[i].Bits) != m {
			return errors.New("proof arity")
		}
	}
	return nil
}

// indexPost builds the row → share maps for a post and checks it carries
// exactly what the published cast data requires: a proof share for every
// row of every used part, an opening share for every audit row.
func (n *Node) indexPost(p *TrusteePost, used map[uint64]uint8) (*postShares, error) {
	ps := &postShares{
		open:  make(map[combineKey]*OpeningShare, len(p.Openings)),
		proof: make(map[combineKey]*ProofFinalShare, len(p.Proofs)),
	}
	for i := range p.Openings {
		o := &p.Openings[i]
		ps.open[combineKey{o.Serial, o.Part, o.Row}] = o
	}
	for i := range p.Proofs {
		pf := &p.Proofs[i]
		ps.proof[combineKey{pf.Serial, pf.Part, pf.Row}] = pf
	}
	for bi := range n.init.Ballots {
		bbb := &n.init.Ballots[bi]
		usedPart, voted := used[bbb.Serial]
		for part := 0; part < 2; part++ {
			for row := range bbb.Parts[part] {
				k := combineKey{bbb.Serial, uint8(part), row} //nolint:gosec // part<2
				if voted && uint8(part) == usedPart {         //nolint:gosec // part<2
					if ps.proof[k] == nil {
						return nil, fmt.Errorf("%w: missing proof share at serial %d part %d row %d",
							ErrBadSubmission, bbb.Serial, part, row)
					}
				} else if ps.open[k] == nil {
					return nil, fmt.Errorf("%w: missing opening share at serial %d part %d row %d",
						ErrBadSubmission, bbb.Serial, part, row)
				}
			}
		}
	}
	return ps, nil
}

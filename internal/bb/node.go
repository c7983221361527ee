// Package bb implements the Bulletin Board subsystem (§III-G): a replicated
// service of isolated nodes that never talk to each other. Each node
// publishes its initialization data immediately, stays inert during
// election hours, accepts the final vote set once fv+1 identical copies
// arrive from VC nodes, reconstructs the vote-code master key from Nv-fv
// EA-signed shares, decrypts and publishes the cast vote codes, and finally
// combines ht trustee posts into the opened audit data, the completed
// zero-knowledge proofs and the election tally.
//
// Readers are expected to query all BB nodes and accept the answer returned
// by fb+1 of them; Reader automates that (the paper's Firefox extension).
package bb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"sync"

	"ddemos/internal/crypto/elgamal"
	"ddemos/internal/crypto/shamir"
	"ddemos/internal/crypto/votecode"
	"ddemos/internal/ea"
	"ddemos/internal/journal"
	"ddemos/internal/vc"
)

// Errors returned by BB write paths.
var (
	// ErrNotReady is returned when reading a value not yet published.
	ErrNotReady = errors.New("bb: not published yet")
	// ErrBadSubmission is returned for invalid writes.
	ErrBadSubmission = errors.New("bb: invalid submission")
)

// CastMark locates one cast vote code on the shuffled BB lists.
type CastMark struct {
	Serial uint64
	Part   uint8
	Row    int
}

// CastData is everything published once the vote set is agreed and the
// master key reconstructed: the set itself, the decrypted per-row codes,
// the positions of the cast codes, and the voters' coins (the A/B choices
// in serial order) that seed the ZK challenge.
type CastData struct {
	VoteSet []vc.VotedBallot
	// Codes[serial-1][part][row] is the decrypted vote code.
	Codes [][2][][]byte
	Marks []CastMark
	Coins []byte
}

// Node is one Bulletin Board replica.
type Node struct {
	init *ea.BBInit

	mu          sync.Mutex
	setSubs     map[int][]vc.VotedBallot // per VC index, first signature-verified set (pinned)
	voteSet     []vc.VotedBallot
	haveSet     bool
	mskShares   map[uint32]*big.Int
	msk         []byte
	cast        *CastData
	usedParts   map[uint64]uint8 // serial → validly-used part (§III-H)
	tallyAgg    elgamal.VectorCiphertext
	tallyAggErr error
	posts       map[int]*TrusteePost
	postHash    map[int][32]byte    // per-trustee HashPost of the accepted post (equivocation check)
	shareIdx    map[int]*postShares // per-trustee share index, built at ingress
	badPosts    map[int]bool        // posts identified as bad by the blame protocol
	result      *Result
	resultCh    chan struct{} // closed when result is installed
	closed      bool

	// Durability layer (journal.go). The per-item flags record which
	// accepted submissions have a journal record on disk: Strict-policy
	// duplicate submissions re-attempt the append until the flag is set.
	journal       journal.Backend
	journalPolicy journal.AckPolicy
	setDurable    map[int]bool
	shareDurable  map[uint32]bool
	postDurable   map[int]bool
	resultDurable bool

	combineRunning bool
	combinePending bool
	// combineCache holds per-ballot verified combinations; owned by the
	// single combine worker goroutine (handoff through combineRunning).
	combineCache map[uint64]*combinedBallot

	metrics Metrics

	// Lying simulates a Byzantine BB node: reads return corrupted data.
	// Writes are processed normally so the rest of the pipeline proceeds.
	Lying bool
	// CombineWorkers bounds the parallelism of combine attempts
	// (0 = GOMAXPROCS). Set before trustee posts arrive.
	CombineWorkers int
	// CombineGate, when set, is called (off-lock) at the start of every
	// combine attempt. Test hook for the off-lock property.
	CombineGate func()
}

// NewNode boots a BB replica from its initialization data (published
// immediately by definition).
func NewNode(init *ea.BBInit) (*Node, error) {
	if init == nil {
		return nil, errors.New("bb: missing init data")
	}
	return &Node{
		init:         init,
		setSubs:      make(map[int][]vc.VotedBallot),
		mskShares:    make(map[uint32]*big.Int),
		posts:        make(map[int]*TrusteePost),
		postHash:     make(map[int][32]byte),
		shareIdx:     make(map[int]*postShares),
		badPosts:     make(map[int]bool),
		resultCh:     make(chan struct{}),
		combineCache: make(map[uint64]*combinedBallot),
		setDurable:   make(map[int]bool),
		shareDurable: make(map[uint32]bool),
		postDurable:  make(map[int]bool),
	}, nil
}

// Manifest returns the public election description.
func (n *Node) Manifest() (ea.Manifest, error) {
	if n.Lying {
		m := n.init.Manifest
		m.ElectionID += "-forged"
		return m, nil
	}
	return n.init.Manifest, nil
}

// Init returns the full initialization data (commitments, encrypted codes,
// proof first moves) for verification by auditors.
func (n *Node) Init() (*ea.BBInit, error) {
	if n.Lying {
		forged := *n.init
		forged.SaltMsk[0] ^= 0xff
		return &forged, nil
	}
	return n.init, nil
}

// SubmitVoteSet records one VC node's final vote set. The set is accepted
// and published once fv+1 identical copies arrive (§III-G). The first
// signature-verified set per VC index is pinned: a later submission with a
// different set is equivocation and is rejected, so a flip-flopping
// Byzantine VC cannot retract a submission that already counted toward the
// fv+1 quorum. On a journaled node the record is appended after the install
// and before the ack (see journal.go for the ordering argument).
func (n *Node) SubmitVoteSet(vcIndex int, set []vc.VotedBallot, sigBytes []byte) error {
	man := &n.init.Manifest
	if vcIndex < 0 || vcIndex >= man.NumVC {
		return fmt.Errorf("%w: vc index %d", ErrBadSubmission, vcIndex)
	}
	if !vc.VerifyVoteSetSig(man, vcIndex, set, sigBytes) {
		return fmt.Errorf("%w: bad vote set signature from vc %d", ErrBadSubmission, vcIndex)
	}
	for i := range set {
		if set[i].Serial == 0 || set[i].Serial > uint64(man.NumBallots) {
			return fmt.Errorf("%w: serial %d out of range", ErrBadSubmission, set[i].Serial)
		}
		if i > 0 && set[i].Serial <= set[i-1].Serial {
			return fmt.Errorf("%w: vote set not sorted", ErrBadSubmission)
		}
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if prev, ok := n.setSubs[vcIndex]; ok {
		if !voteSetsEqual(prev, set) {
			n.metrics.SetEquivocations.Add(1)
			n.mu.Unlock()
			return fmt.Errorf("%w: vc %d equivocated on its vote set", ErrBadSubmission, vcIndex)
		}
		needRec := n.journal != nil && !n.setDurable[vcIndex]
		n.mu.Unlock()
		if !needRec {
			return nil
		}
		return n.journalSubmission(encBBSet(vcIndex, prev), func() { n.setDurable[vcIndex] = true })
	}
	n.setSubs[vcIndex] = set
	if !n.haveSet {
		// Count identical submissions.
		need := man.FaultyVC() + 1
		count := 0
		for _, other := range n.setSubs {
			if voteSetsEqual(set, other) {
				count++
			}
		}
		if count >= need {
			n.voteSet = set
			n.haveSet = true
			n.maybePublishCastLocked()
		}
	}
	journaled := n.journal != nil
	n.mu.Unlock()
	if !journaled {
		return nil
	}
	return n.journalSubmission(encBBSet(vcIndex, set), func() { n.setDurable[vcIndex] = true })
}

func voteSetsEqual(a, b []vc.VotedBallot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Serial != b[i].Serial || !bytes.Equal(a[i].Code, b[i].Code) {
			return false
		}
	}
	return true
}

// SubmitMskShare records one VC node's master-key share; with Nv-fv valid
// shares the key is reconstructed and verified against H_msk. On a
// journaled node the share is appended after the install and before the
// ack; shares arriving after the key is reconstructed add nothing and are
// acked without storage.
func (n *Node) SubmitMskShare(share ea.MskShare) error {
	man := &n.init.Manifest
	s := shamir.Share{Index: share.Index, Value: share.Value}
	if share.Index == 0 || int(share.Index) > man.NumVC ||
		!ea.VerifyMskShare(man.EAPublic, share.Sig, man.ElectionID, s) {
		return fmt.Errorf("%w: bad msk share", ErrBadSubmission)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.msk != nil {
		n.mu.Unlock()
		return nil
	}
	if _, dup := n.mskShares[share.Index]; dup {
		needRec := n.journal != nil && !n.shareDurable[share.Index]
		n.mu.Unlock()
		if !needRec {
			return nil
		}
		return n.journalSubmission(encBBShare(share.Index, share.Value),
			func() { n.shareDurable[share.Index] = true })
	}
	n.mskShares[share.Index] = share.Value
	n.tryReconstructMskLocked()
	journaled := n.journal != nil
	n.mu.Unlock()
	if !journaled {
		return nil
	}
	return n.journalSubmission(encBBShare(share.Index, share.Value),
		func() { n.shareDurable[share.Index] = true })
}

// tryReconstructMskLocked attempts master-key reconstruction from the
// currently-held shares and, on success, publishes the cast data. A failed
// combination is not an error — more shares may fix it. Caller holds n.mu.
// Shared by the submission path and recovery (finishRecoveryLocked): any hv
// EA-verified shares reconstruct the same secret, so the outcome does not
// depend on which subset or order the shares arrived in.
func (n *Node) tryReconstructMskLocked() {
	if n.msk != nil {
		return
	}
	hv := n.init.Manifest.ReceiptThreshold()
	if len(n.mskShares) < hv {
		return
	}
	shares := make([]shamir.Share, 0, hv)
	for idx, v := range n.mskShares {
		shares = append(shares, shamir.Share{Index: idx, Value: v})
		if len(shares) == hv {
			break
		}
	}
	secret, err := shamir.Combine(shares, hv)
	if err != nil {
		return // wait for more shares
	}
	msk, err := shamir.ScalarToSecret(secret)
	if err != nil || len(msk) != votecode.KeySize {
		return // wait for more shares
	}
	if !votecode.VerifyKey(n.init.HMsk, msk, n.init.SaltMsk[:]) {
		return // combination failed H_msk; more shares may fix it
	}
	n.msk = msk
	n.maybePublishCastLocked()
}

// maybePublishCastLocked decrypts all vote codes and locates the cast ones
// once both the vote set and the master key are available.
func (n *Node) maybePublishCastLocked() {
	if n.cast != nil || !n.haveSet || n.msk == nil {
		return
	}
	man := &n.init.Manifest
	cast := &CastData{
		VoteSet: n.voteSet,
		Codes:   make([][2][][]byte, man.NumBallots),
	}
	type loc struct {
		part uint8
		row  int
	}
	index := make(map[uint64]map[string]loc, man.NumBallots)
	for i := range n.init.Ballots {
		bbb := &n.init.Ballots[i]
		perBallot := make(map[string]loc, 2*len(bbb.Parts[0]))
		for part := 0; part < 2; part++ {
			rows := make([][]byte, len(bbb.Parts[part]))
			for row := range bbb.Parts[part] {
				code, err := votecode.Decrypt(n.msk, bbb.Parts[part][row].EncCode)
				if err != nil {
					continue // corrupt row: skip; auditors will notice
				}
				rows[row] = code
				perBallot[string(code)] = loc{part: uint8(part), row: row} //nolint:gosec // part<2
			}
			cast.Codes[i][part] = rows
		}
		index[bbb.Serial] = perBallot
	}
	for _, vb := range cast.VoteSet {
		l, ok := index[vb.Serial][string(vb.Code)]
		if !ok {
			continue // cast code not on this ballot: auditors will flag it
		}
		cast.Marks = append(cast.Marks, CastMark{Serial: vb.Serial, Part: l.part, Row: l.row})
		cast.Coins = append(cast.Coins, l.part)
	}
	sort.Slice(cast.Marks, func(i, j int) bool { return cast.Marks[i].Serial < cast.Marks[j].Serial })
	// Maintain the homomorphic tally aggregate incrementally: it is fixed
	// the moment the cast marks are published, so combine attempts (and
	// retries under Byzantine posts) never recompute the ciphertext sum.
	n.usedParts = UsedParts(man.MaxSelections, cast.Marks)
	n.tallyAgg, n.tallyAggErr = castTallyAggregate(n.init.Ballots, cast.Marks, n.usedParts)
	n.cast = cast
}

// UsedParts maps each validly-voted serial to its used part, applying the
// §III-H vote-set validation: a ballot with marks on both parts, or with
// more than maxSelections marks, is invalid and treated as unvoted (both
// parts are opened for audit, no tally contribution). Trustees and BB
// nodes share this helper so they cannot diverge on which rows enter the
// tally.
func UsedParts(maxSelections int, marks []CastMark) map[uint64]uint8 {
	per := make(map[uint64][]CastMark, len(marks))
	for _, mk := range marks {
		per[mk.Serial] = append(per[mk.Serial], mk)
	}
	out := make(map[uint64]uint8, len(per))
	for serial, ms := range per {
		part := ms[0].Part
		valid := len(ms) <= maxSelections
		for _, mk := range ms {
			if mk.Part != part {
				valid = false // both parts used: discard ballot
			}
		}
		if valid {
			out[serial] = part
		}
	}
	return out
}

// castTallyAggregate folds the commitment vectors of every validly-cast
// row into the homomorphic tally sum. An aggregation failure (malformed
// init data with inconsistent vector lengths) is reported, never silently
// truncated.
func castTallyAggregate(ballots []ea.BBBallot, marks []CastMark, used map[uint64]uint8) (elgamal.VectorCiphertext, error) {
	var agg elgamal.VectorCiphertext
	for _, mk := range marks {
		part, ok := used[mk.Serial]
		if !ok || part != mk.Part {
			continue
		}
		if mk.Serial == 0 || mk.Serial > uint64(len(ballots)) || mk.Part > 1 {
			continue
		}
		rows := ballots[mk.Serial-1].Parts[mk.Part]
		if mk.Row < 0 || mk.Row >= len(rows) {
			continue
		}
		ct := rows[mk.Row].Commitment
		if agg == nil {
			agg = append(elgamal.VectorCiphertext(nil), ct...)
			continue
		}
		var err error
		if agg, err = agg.Add(ct); err != nil {
			return nil, fmt.Errorf("bb: aggregating cast commitments at serial %d: %w", mk.Serial, err)
		}
	}
	return agg, nil
}

// VoteSet returns the agreed vote set once published.
func (n *Node) VoteSet() ([]vc.VotedBallot, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.haveSet {
		return nil, ErrNotReady
	}
	if n.Lying {
		// Drop the last vote — exactly the attack majority reads defeat.
		if len(n.voteSet) > 0 {
			return n.voteSet[:len(n.voteSet)-1], nil
		}
		return []vc.VotedBallot{{Serial: 1, Code: []byte("forged")}}, nil
	}
	return n.voteSet, nil
}

// Cast returns the published cast data (decrypted codes, marks, coins).
func (n *Node) Cast() (*CastData, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cast == nil {
		return nil, ErrNotReady
	}
	if n.Lying {
		forged := *n.cast
		forged.Coins = append([]byte(nil), n.cast.Coins...)
		for i := range forged.Coins {
			forged.Coins[i] = 1 - forged.Coins[i]
		}
		return &forged, nil
	}
	return n.cast, nil
}

// Result returns the final published result once trustees have posted.
func (n *Node) Result() (*Result, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.result == nil {
		return nil, ErrNotReady
	}
	if n.Lying {
		forged := *n.result
		forged.Counts = append([]int64(nil), n.result.Counts...)
		if len(forged.Counts) > 1 {
			forged.Counts[0], forged.Counts[1] = forged.Counts[1], forged.Counts[0]
		}
		return &forged, nil
	}
	return n.result, nil
}

// WaitResult blocks until the node publishes its Result or ctx is done.
// Combination runs in a background worker, so SubmitTrusteePost returning
// does not mean the result exists yet — this is the synchronization point.
func (n *Node) WaitResult(ctx context.Context) (*Result, error) {
	n.mu.Lock()
	ch := n.resultCh
	n.mu.Unlock()
	select {
	case <-ch:
		return n.Result()
	case <-ctx.Done():
		select {
		case <-ch: // result raced with cancellation; prefer it
			return n.Result()
		default:
		}
		return nil, ctx.Err()
	}
}

// BlamedTrustees returns the (sorted) trustee indices whose posts the
// blame protocol identified as bad on this node.
func (n *Node) BlamedTrustees() []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]int, 0, len(n.badPosts))
	for t := range n.badPosts {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

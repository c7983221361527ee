package bb

import (
	"fmt"

	"ddemos/internal/ea"
	"ddemos/internal/journal"
	"ddemos/internal/vc"
)

// Submitter is one replica as a writer sees it: it takes an encoded
// submission (KindSetSubmission, KindMskShare or KindTrusteePost). Node
// implements it; so does the HTTP client's view.
type Submitter interface {
	Submit(kind Kind, body []byte) error
}

// SubmitFunc adapts a function to Submitter.
type SubmitFunc func(kind Kind, body []byte) error

// Submit implements Submitter.
func (f SubmitFunc) Submit(kind Kind, body []byte) error { return f(kind, body) }

// Open is the one way a replica comes up, in ddemos-bb and core.Cluster
// alike: it boots the replica from its init data and, when dataDir is set,
// recovers its runtime state from the journal there and keeps journaling to
// it (see RecoverWithOptions). Close releases the journal.
func Open(init *ea.BBInit, dataDir string, opts journal.Options) (*Node, error) {
	n, err := NewNode(init)
	if err != nil {
		return nil, err
	}
	if dataDir != "" {
		if err := n.RecoverWithOptions(dataDir, opts); err != nil {
			return nil, fmt.Errorf("bb: recovering runtime state from %s: %w", dataDir, err)
		}
	}
	return n, nil
}

// Push hands a VC node's agreed vote set to the board, in ddemos-vc and
// core.Cluster alike: it signs set once and submits the signed set, then the
// node's master-key share, to each board in turn. errs[i] is board i's
// refusal (nil when board i took both); a board that refuses the set is not
// sent the share.
func Push(node *vc.Node, set []vc.VotedBallot, boards []Submitter) (errs []error) {
	sub := EncodeSetSubmission(&VoteSetSubmission{VCIndex: node.Index(), Set: set, Sig: node.SignVoteSet(set)})
	share := EncodeMskShare(node.MskShare())
	errs = make([]error, len(boards))
	for i, b := range boards {
		if err := b.Submit(KindSetSubmission, sub); err != nil {
			errs[i] = err
			continue
		}
		if err := b.Submit(KindMskShare, share); err != nil {
			errs[i] = fmt.Errorf("msk share: %w", err)
		}
	}
	return errs
}

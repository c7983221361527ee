// Package voter implements the voter client of §III-F. The voter owns a
// paper(-equivalent) ballot, picks one of its two parts at random, submits
// the vote code of her chosen option to a randomly selected VC node, and
// compares the returned receipt with the one printed next to the code. Per
// Definition 1 ([d]-patience), a voter that obtains no valid receipt within
// her patience window blacklists the node and resubmits the same code to
// another randomly chosen node — the behaviour behind the liveness bound of
// Theorem 1.
//
// No cryptography runs on the voter's device: submitting a 160-bit code and
// string-comparing a 64-bit receipt is all it takes, which is what makes
// voting possible from SMS or a dumb terminal.
package voter

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"time"

	"ddemos/internal/ballot"
	"ddemos/internal/bb"
	"ddemos/internal/crypto/votecode"
	"ddemos/internal/ea"
)

// Service is a voter's view of one VC node (direct handle or HTTP client).
type Service interface {
	SubmitVote(ctx context.Context, serial uint64, code []byte) (receipt []byte, err error)
}

// Client is one voter.
type Client struct {
	// Ballot is the voter's ballot, received over the secure distribution
	// channel.
	Ballot *ballot.Ballot
	// Services are the VC nodes the voter knows (the paper requires at
	// least fv+1 URLs).
	Services []Service
	// Patience is d from Definition 1: how long to wait for a receipt
	// before blacklisting a node and retrying elsewhere. Defaults to 5s.
	Patience time.Duration
}

// CastResult records a successful vote for later verification/delegation.
type CastResult struct {
	Serial      uint64
	Part        ballot.PartID
	OptionIndex int
	Code        []byte
	Receipt     []byte
	// Attempts counts submissions including the successful one.
	Attempts int
}

// Errors returned by Cast.
var (
	// ErrExhausted means every known VC node was tried without a receipt.
	ErrExhausted = errors.New("voter: all VC nodes blacklisted without a valid receipt")
	// ErrReceiptMismatch means a node returned a receipt different from the
	// ballot's printed one — proof of misbehaviour.
	ErrReceiptMismatch = errors.New("voter: receipt does not match ballot")
)

// Cast votes for the option at optionIndex, implementing [d]-patient
// resubmission. The ballot part is chosen uniformly at random — that choice
// doubles as the voter's contribution to the ZK challenge (§III-B).
func (c *Client) Cast(ctx context.Context, optionIndex int) (*CastResult, error) {
	part, err := randomPart()
	if err != nil {
		return nil, err
	}
	return c.CastWithPart(ctx, optionIndex, part)
}

// CastWithPart votes with an explicit part choice (tests and auditors that
// need determinism; real voters should use Cast).
func (c *Client) CastWithPart(ctx context.Context, optionIndex int, part ballot.PartID) (*CastResult, error) {
	if len(c.Services) == 0 {
		return nil, errors.New("voter: no VC nodes configured")
	}
	code, err := c.Ballot.CodeFor(part, optionIndex)
	if err != nil {
		return nil, err
	}
	expected := c.Ballot.Parts[part].Lines[optionIndex].Receipt
	patience := c.Patience
	if patience <= 0 {
		patience = 5 * time.Second
	}

	blacklist := make(map[int]bool, len(c.Services))
	attempts := 0
	var lastErr error = ErrExhausted
	for len(blacklist) < len(c.Services) {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("voter: casting: %w", err)
		}
		idx, err := pickRandom(len(c.Services), blacklist)
		if err != nil {
			return nil, err
		}
		attempts++
		subCtx, cancel := context.WithTimeout(ctx, patience)
		receipt, err := c.Services[idx].SubmitVote(subCtx, c.Ballot.Serial, code)
		cancel()
		switch {
		case err != nil:
			blacklist[idx] = true
			lastErr = err
		case !votecode.Equal(receipt, expected):
			blacklist[idx] = true
			lastErr = ErrReceiptMismatch
		default:
			return &CastResult{
				Serial:      c.Ballot.Serial,
				Part:        part,
				OptionIndex: optionIndex,
				Code:        code,
				Receipt:     receipt,
				Attempts:    attempts,
			}, nil
		}
	}
	return nil, fmt.Errorf("%w (last error: %v)", ErrExhausted, lastErr)
}

// AuditPackage builds the delegation package for third-party auditing
// (§III-F): the cast code plus the full unused part; neither reveals the
// voter's choice.
func (c *Client) AuditPackage(result *CastResult) (*ballot.AuditPackage, error) {
	if result == nil {
		return c.Ballot.AbstainAuditPackage(), nil
	}
	return c.Ballot.NewAuditPackage(result.Part, result.Code)
}

// Verify performs the voter's two post-election checks against the BB
// (§III-F): (1) the cast code is in the tally set; (2) the unused part as
// opened on the BB matches the ballot's printed copy.
func (c *Client) Verify(reader *bb.Reader, result *CastResult) error {
	if result == nil {
		return errors.New("voter: nothing to verify (no cast result)")
	}
	voteSet, err := reader.VoteSet()
	if err != nil {
		return fmt.Errorf("voter: reading vote set: %w", err)
	}
	found := false
	for _, vb := range voteSet {
		if vb.Serial == result.Serial && votecode.Equal(vb.Code, result.Code) {
			found = true
			break
		}
	}
	if !found {
		return errors.New("voter: cast vote code missing from the tally set")
	}
	pkg, err := c.AuditPackage(result)
	if err != nil {
		return err
	}
	return VerifyUnusedPart(reader, pkg)
}

// VerifyUnusedPart reads the manifest, cast data and result by majority,
// once, and runs CheckUnusedPart against them.
func VerifyUnusedPart(reader *bb.Reader, pkg *ballot.AuditPackage) error {
	man, err := reader.Manifest()
	if err != nil {
		return fmt.Errorf("voter: reading manifest: %w", err)
	}
	cast, err := reader.Cast()
	if err != nil {
		return fmt.Errorf("voter: reading cast data: %w", err)
	}
	result, err := reader.Result()
	if err != nil {
		return fmt.Errorf("voter: reading result: %w", err)
	}
	return CheckUnusedPart(&man, cast, result, pkg)
}

// CheckUnusedPart checks, on a board already read, that the opened rows of
// the package's unused part match the printed ⟨code, option⟩ association.
// Shared by voters and delegated auditors; the package is untrusted input.
func CheckUnusedPart(man *ea.Manifest, cast *bb.CastData, result *bb.Result, pkg *ballot.AuditPackage) error {
	if pkg.Serial == 0 || pkg.Serial > uint64(man.NumBallots) || pkg.Serial > uint64(len(cast.Codes)) {
		return fmt.Errorf("voter: serial %d out of range", pkg.Serial)
	}
	if !pkg.UnusedPartID.Valid() {
		return fmt.Errorf("voter: part %d out of range", pkg.UnusedPartID)
	}
	// Index the published openings of this ballot's unused part.
	opened := make(map[int]int) // row -> hot option index
	for _, o := range result.Openings {
		if o.Serial == pkg.Serial && o.Part == uint8(pkg.UnusedPartID) {
			opened[o.Row] = o.HotIndex
		}
	}
	codes := cast.Codes[pkg.Serial-1][pkg.UnusedPartID]
	for _, line := range pkg.UnusedPart.Lines {
		optIdx, err := man.OptionIndex(line.Option)
		if err != nil {
			return err
		}
		row := -1
		for r, code := range codes {
			if votecode.Equal(code, line.VoteCode) {
				row = r
				break
			}
		}
		if row == -1 {
			return fmt.Errorf("voter: code for option %q not found on BB (modification attack?)", line.Option)
		}
		hot, ok := opened[row]
		if !ok {
			return fmt.Errorf("voter: row %d of unused part not opened", row)
		}
		if hot != optIdx {
			return fmt.Errorf("voter: BB says row %d encodes option %d, ballot says %d — ballot tampered",
				row, hot, optIdx)
		}
	}
	return nil
}

func randomPart() (ballot.PartID, error) {
	b, err := rand.Int(rand.Reader, big.NewInt(2))
	if err != nil {
		return 0, fmt.Errorf("voter: sampling part: %w", err)
	}
	return ballot.PartID(b.Int64()), nil //nolint:gosec // 0 or 1
}

func pickRandom(n int, blacklist map[int]bool) (int, error) {
	candidates := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !blacklist[i] {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return 0, ErrExhausted
	}
	b, err := rand.Int(rand.Reader, big.NewInt(int64(len(candidates))))
	if err != nil {
		return 0, fmt.Errorf("voter: sampling node: %w", err)
	}
	return candidates[b.Int64()], nil
}

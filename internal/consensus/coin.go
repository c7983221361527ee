// Package consensus implements asynchronous binary Byzantine consensus for
// f < n/3, plus the batched multi-instance driver the Vote Set Consensus
// protocol runs at election end (§III-E, §V). It is the repository's only
// binary agreement: the interlocked engine runs one instance per ballot with
// all inputs bound at once (Batch.Start), the ACS engine (internal/acs) one
// per broadcaster with inputs bound as its reliable broadcasts deliver
// (Batch.Input, Batch.OnDecide), and internal/smr one per log slot.
//
// The single-instance protocol is the BV-broadcast consensus of
// Mostéfaoui–Moumen–Raynal (PODC'14): signature-free, optimal resilience,
// terminating with probability 1 given a common coin. It provides exactly
// the binary-consensus contract the paper's vote-set-consensus correctness
// argument relies on (agreement, validity — unanimous honest input decides
// that input — and termination). See DESIGN.md for why this stands in for
// Bracha's protocol from the paper's prototype.
//
// Each instance additionally runs a Bracha-style termination gadget:
// deciders broadcast DECIDE; f+1 matching DECIDEs let a node decide without
// finishing its round, and 2f+1 let it halt, so every instance shuts down
// cleanly instead of looping forever.
//
// The coin is the Coin interface and nothing else: a round completes on a
// locally computed Flip, with no message step and no timer. A threshold coin
// would add its share exchange here, behind that interface, for every caller
// at once.
package consensus

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
)

// Coin supplies the per-(instance, round) coin flips that randomize
// consensus. Implementations must return 0 or 1.
type Coin interface {
	Flip(instance uint32, round uint16) byte
}

// HashCoin is a deterministic coin shared by all nodes that derive it from
// the same seed (e.g. the election ID). It behaves as a common coin:
// all nodes see the same flips, which gives constant expected rounds. Its
// flips are predictable by the adversary, so it trades the theoretical
// worst-case adversarial schedule for speed — acceptable here because the
// network schedule in both the simulator and a deployment does not consult
// the coin. LocalCoin is the fallback with no predictability.
type HashCoin struct {
	seed [32]byte
}

// NewHashCoin derives a coin from seed bytes.
func NewHashCoin(seed []byte) *HashCoin {
	c := &HashCoin{}
	c.seed = sha256.Sum256(append([]byte("ddemos/coin/"), seed...))
	return c
}

// Flip implements Coin.
func (c *HashCoin) Flip(instance uint32, round uint16) byte {
	var buf [38]byte
	copy(buf[:32], c.seed[:])
	binary.BigEndian.PutUint32(buf[32:36], instance)
	binary.BigEndian.PutUint16(buf[36:], round)
	sum := sha256.Sum256(buf[:])
	return sum[0] & 1
}

// LocalCoin flips an independent uniform coin per call (Ben-Or style).
// Termination is then probabilistic with expected exponential rounds under
// a worst-case adversary, but fast in practice when honest inputs dominate.
type LocalCoin struct{}

// Flip implements Coin.
func (LocalCoin) Flip(uint32, uint16) byte {
	var b [1]byte
	_, _ = rand.Read(b[:])
	return b[0] & 1
}

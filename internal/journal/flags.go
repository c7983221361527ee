package journal

import (
	"errors"
	"flag"
	"fmt"
)

// Flags are the four journal flags ddemos-vc and ddemos-bb share:
// -data-dir, -fsync, -journal-pool and -journal-policy.
type Flags struct {
	dataDir, policy *string
	fsync           *bool
	pool            *int
}

// RegisterFlags defines the journal flags on fs. keyedBy names what a node
// hashes its records over to pick a lane ("ballot serial" on a VC).
func RegisterFlags(fs *flag.FlagSet, keyedBy string) *Flags {
	return &Flags{
		dataDir: fs.String("data-dir", "",
			"directory for durable runtime state (WAL lanes + snapshots); the node recovers from it on startup, "+
				"so a crashed node rejoins instead of staying down (empty = memory-only)"),
		fsync: fs.Bool("fsync", false,
			"fsync the journal before every ack instead of on the batched group-commit cadence "+
				"(per-transition durability against power loss; requires -data-dir)"),
		pool: fs.Int("journal-pool", 1,
			"number of journal WAL lanes runtime state is hashed over by "+keyedBy+", each with its own "+
				"group-commit fsync and copy-on-write snapshots — the Fig. 5a pool knob; a directory reopens "+
				"only with the lane count it was written under (requires -data-dir)"),
		policy: fs.String("journal-policy", "available",
			"journal-append-error ack policy: 'available' counts errors and keeps serving from memory, "+
				"'strict' refuses acks whose record did not land "+
				"(the safer election-day setting; requires -data-dir, pair with -fsync for "+
				"power-loss durability of every ack)"),
	}
}

// Options returns the parsed data directory (empty = memory-only) and journal
// options. Without -data-dir, the other three flags must keep their defaults.
func (f *Flags) Options() (dataDir string, opts Options, err error) {
	policy, err := ParseAckPolicy(*f.policy)
	if err != nil {
		return "", Options{}, err
	}
	if *f.dataDir == "" {
		switch {
		case *f.fsync:
			return "", Options{}, errors.New("-fsync requires -data-dir")
		case *f.pool > 1:
			return "", Options{}, errors.New("-journal-pool requires -data-dir")
		case policy != PolicyAvailable:
			return "", Options{}, fmt.Errorf("-journal-policy %s requires -data-dir", policy)
		}
	}
	return *f.dataDir, Options{Fsync: *f.fsync, Pool: *f.pool, Policy: policy}, nil
}

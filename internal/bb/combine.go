package bb

import (
	"fmt"
	"math/big"
	"sort"
	"time"

	"ddemos/internal/crypto/elgamal"
	"ddemos/internal/crypto/shamir"
	"ddemos/internal/crypto/zkp"
	"ddemos/internal/ea"
	"ddemos/internal/journal"
	"ddemos/internal/parallel"
)

// Tuning knobs for the combine pipeline.
const (
	// maxBlamedFailures caps how many failed statements the blame pass
	// analyses per attempt. One failure suffices to identify one bad
	// trustee; remaining bad posts are caught on subsequent attempts.
	maxBlamedFailures = 8
	// abortFailures aborts an attempt once this many statements have
	// failed: the attempt cannot succeed anymore, and the cap bounds the
	// per-element EC work a fully-garbage post can cause per attempt.
	abortFailures = 64
)

// combinedBallot caches one ballot's verified combination across attempts.
// Lifted-ElGamal commitments are perfectly binding — (A, B) determines
// (m, r) uniquely — so openings verified against the public commitments
// are THE openings, independent of which subset produced them, and never
// need recomputation when the subset changes.
type combinedBallot struct {
	openings []OpenedRow
	proofs   []ProvenRow
}

// rowCheck re-verifies one failed statement under an arbitrary subset of
// posts; the blame protocol uses it to classify candidates. A nil check
// marks an unrecoverable failure that no trustee can be blamed for (e.g.
// the opened row is not a unit vector — an EA fault).
type rowCheck struct {
	desc  string
	check func(sub []*TrusteePost) bool
}

// stmtKind says which relation a statement asserts.
type stmtKind uint8

const (
	stmtOpening stmtKind = iota // ct opens to (m, r): one column of an audit row
	stmtTally                   // the same relation, over the tally aggregate
	stmtBit                     // ct encrypts 0 or 1
	stmtSum                     // the row's ciphertexts sum to an encryption of 1
)

// statement is one thing a combine attempt must verify: public data fixed
// by the setup and the cast data, plus the scalars the trustees' shares
// interpolate to. Stage A fills the scalars under the attempt's subset,
// stage B verifies them, and the blame protocol re-fills a copy under other
// subsets.
type statement struct {
	kind stmtKind
	bi   int                // index into init.Ballots; -1 for stmtTally
	k    combineKey         // the row (unused for stmtTally)
	col  int                // column of the row; the option for stmtTally
	ct   elgamal.Ciphertext // all kinds but stmtSum
	row  *ea.BBRow          // stmtBit, stmtSum: commitments and first moves
	c    *big.Int           // stmtBit, stmtSum: the voter-coin challenge

	m, r *big.Int     // stmtOpening, stmtTally
	bit  zkp.BitFinal // stmtBit
	sum  zkp.SumFinal // stmtSum
}

func (s *statement) String() string {
	switch s.kind {
	case stmtTally:
		return fmt.Sprintf("tally option %d", s.col)
	case stmtBit:
		return fmt.Sprintf("bit proof %d/%d/%d col %d", s.k.serial, s.k.part, s.k.row, s.col)
	case stmtSum:
		return fmt.Sprintf("sum proof %d/%d/%d", s.k.serial, s.k.part, s.k.row)
	default:
		return fmt.Sprintf("opening %d/%d/%d col %d", s.k.serial, s.k.part, s.k.row, s.col)
	}
}

// add queues the statement on a batch; verify is its per-element twin,
// used to locate failures in a rejected batch and as the blame probe.
func (s *statement) add(b *zkp.Batch) {
	switch s.kind {
	case stmtBit:
		b.AddBit(s.ct, s.row.BitCommits[s.col], s.bit, s.c)
	case stmtSum:
		b.AddSum(s.row.Commitment, 1, s.row.SumCommit, s.sum, s.c)
	default:
		b.AddOpening(s.ct, s.m, s.r)
	}
}

func (s *statement) verify(ck elgamal.CommitmentKey) bool {
	switch s.kind {
	case stmtBit:
		return zkp.VerifyBit(ck, s.ct, s.row.BitCommits[s.col], s.bit, s.c)
	case stmtSum:
		return zkp.VerifySum(ck, s.row.Commitment, 1, s.row.SumCommit, s.sum, s.c)
	default:
		return ck.VerifyOpening(s.ct, s.m, s.r)
	}
}

// combineEnv is the immutable context of one combine attempt, snapshotted
// under n.mu so the attempt itself runs entirely off-lock.
type combineEnv struct {
	man    *ea.Manifest
	ck     elgamal.CommitmentKey
	m      int
	master []byte
	used   map[uint64]uint8
	agg    elgamal.VectorCiphertext
	shares map[int]*postShares
}

func shareIndices(posts []*TrusteePost) []uint32 {
	out := make([]uint32, len(posts))
	for i, p := range posts {
		out[i] = p.ShareIndex
	}
	return out
}

// kickCombineLocked starts (or re-arms) the background combine worker.
// Callers hold n.mu.
func (n *Node) kickCombineLocked() {
	if n.result != nil || n.tallyAggErr != nil || n.closed {
		return
	}
	if n.combineRunning {
		n.combinePending = true
		return
	}
	if len(n.posts) < n.init.Manifest.TrusteeThreshold {
		return
	}
	n.combineRunning = true
	go n.combineWorker()
}

// candidatesLocked returns the posts eligible for the next attempt, sorted
// by trustee index: the non-blamed posts, or — if blame has eaten into the
// pool so deeply that fewer than ht remain — every post, so a mis-blame
// under colluding trustees degrades liveness only until more posts arrive,
// never permanently.
func (n *Node) candidatesLocked() []*TrusteePost {
	ht := n.init.Manifest.TrusteeThreshold
	var out []*TrusteePost
	for _, p := range n.posts {
		if !n.badPosts[p.Trustee] {
			out = append(out, p)
		}
	}
	if len(out) < ht {
		out = out[:0]
		for _, p := range n.posts {
			out = append(out, p)
		}
		if len(out) < ht {
			return nil
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Trustee < out[j].Trustee })
	return out
}

// combineWorker runs combine attempts until a result is published or no
// further progress is possible; it exits when idle and is restarted by the
// next post. Exactly one worker runs at a time (combineRunning), which
// also makes it the sole owner of n.combineCache.
func (n *Node) combineWorker() {
	for {
		n.mu.Lock()
		if n.result != nil || n.closed {
			n.combineRunning = false
			n.mu.Unlock()
			return
		}
		n.combinePending = false
		cands := n.candidatesLocked()
		if cands == nil {
			n.combineRunning = false
			n.mu.Unlock()
			return
		}
		man := &n.init.Manifest
		env := &combineEnv{
			man:    man,
			ck:     man.CommitmentKey(),
			m:      len(man.Options),
			master: zkp.MasterChallenge(man.ElectionID, n.cast.Coins),
			used:   n.usedParts,
			agg:    n.tallyAgg,
			shares: make(map[int]*postShares, len(n.shareIdx)),
		}
		for t, ps := range n.shareIdx {
			env.shares[t] = ps
		}
		gate := n.CombineGate
		n.mu.Unlock()

		if gate != nil {
			gate()
		}
		start := time.Now()
		res, blamed := n.combineAttempt(env, cands)
		n.metrics.CombineAttempts.Add(1)
		n.metrics.CombineNanos.Add(time.Since(start).Nanoseconds())

		if res != nil {
			rec := encode(journal.Header(bbRecResult, 0), res, walkResult) // encoded once, off-lock
			n.mu.Lock()
			installed := false
			if n.result == nil && !n.closed {
				n.result, n.resultRec = res, rec
				installed = true
			}
			n.combineRunning = false
			n.mu.Unlock()
			if installed {
				// Journal.go's ordering discipline, applied to the publish:
				// install, then append (off-lock — snapshots capture under
				// n.mu), then release WaitResult waiters. A waiter that saw
				// the publish can therefore immediately hard-stop the node
				// and still find the result record on disk. The append is
				// best-effort: there is no ack to refuse, and a lost record
				// is re-derived after recovery by recombining the posts.
				_ = n.journalAppend(rec)
				close(n.resultCh)
			}
			return
		}
		n.mu.Lock()
		progress := false
		var fresh [][]byte
		for _, t := range blamed {
			if !n.badPosts[t] {
				n.badPosts[t] = true
				n.metrics.BadPostBlames.Add(1)
				progress = true
				fresh = append(fresh, encBBBlame(t))
			}
		}
		stop := !progress && !n.combinePending
		if stop {
			n.combineRunning = false
		}
		n.mu.Unlock()
		// Blame verdicts are best-effort durable: a lost record only costs
		// the recovered node one combine attempt to re-derive the blame.
		_ = n.journalAppend(fresh...)
		if stop {
			return
		}
	}
}

// combineAttempt runs one full combination over the first ht candidates.
// It returns either a verified Result, or the trustees blamed for the
// failures (empty when inconclusive — e.g. every candidate subset fails,
// which means more posts are needed).
func (n *Node) combineAttempt(env *combineEnv, cands []*TrusteePost) (*Result, []int) {
	ht := env.man.TrusteeThreshold
	if len(cands) < ht {
		return nil, nil
	}
	subset := append([]*TrusteePost(nil), cands[:ht]...)
	lam, err := shamir.LagrangeCoefficients(shareIndices(subset))
	if err != nil {
		return nil, nil
	}
	ballots := n.init.Ballots

	// Stage A: per-ballot scalar combination, parallel across ballots. No
	// group arithmetic happens here; every combined value becomes a
	// statement for stage B.
	type ballotOut struct {
		cb     *combinedBallot
		cached bool
		stmts  []statement
		fails  []rowCheck
	}
	outs := make([]ballotOut, len(ballots))
	parallel.Run(0, len(ballots), func(bi int) { // 0 workers: one per CPU, as for VerifyEach below
		out := &outs[bi]
		bbb := &ballots[bi]
		if _, out.cached = n.combineCache[bbb.Serial]; out.cached {
			return
		}
		out.cb = &combinedBallot{}
		usedPart, voted := env.used[bbb.Serial]
		for part := range bbb.Parts {
			proven := voted && uint8(part) == usedPart //nolint:gosec // part<2
			for row := range bbb.Parts[part] {
				k := combineKey{bbb.Serial, uint8(part), row} //nolint:gosec // part<2
				stmts := env.combineRow(subset, lam, bi, k, &bbb.Parts[part][row], proven)
				if stmts == nil {
					out.fails = append(out.fails, rowCheck{desc: fmt.Sprintf("missing shares at %v", k)})
					continue
				}
				out.stmts = append(out.stmts, stmts...)
				if proven {
					pr := ProvenRow{Serial: k.serial, Part: k.part, Row: k.row, Sum: stmts[env.m].sum}
					for _, s := range stmts[:env.m] {
						pr.Bits = append(pr.Bits, s.bit)
					}
					out.cb.proofs = append(out.cb.proofs, pr)
					continue
				}
				or := OpenedRow{Serial: k.serial, Part: k.part, Row: k.row, HotIndex: -1}
				for _, s := range stmts {
					or.Ms = append(or.Ms, s.m)
					or.Rs = append(or.Rs, s.r)
				}
				out.cb.openings = append(out.cb.openings, or)
			}
		}
	})

	// Stage B: every statement of the attempt — openings, bit and sum
	// proofs, the tally opening — goes through the one batch verifier.
	// Only a rejected chunk is re-checked per element, to name the
	// statements the blame protocol then probes.
	var stmts []statement
	for bi := range outs {
		stmts = append(stmts, outs[bi].stmts...)
	}
	tally := len(stmts)
	for j := range env.agg {
		s := statement{kind: stmtTally, bi: -1, col: j, ct: env.agg[j]}
		env.combine(&s, subset, lam)
		stmts = append(stmts, s)
	}
	bad, fallbacks := zkp.VerifyEach(env.ck, 0, len(stmts), abortFailures,
		func(b *zkp.Batch, i int) { stmts[i].add(b) },
		func(i int) bool { return stmts[i].verify(env.ck) })
	n.metrics.BatchFallbacks.Add(int64(fallbacks))
	var tallyFails []rowCheck
	for _, i := range bad {
		if bi := stmts[i].bi; bi >= 0 {
			outs[bi].fails = append(outs[bi].fails, env.blameCheck(stmts[i]))
		} else {
			tallyFails = append(tallyFails, env.blameCheck(stmts[i]))
		}
	}
	// An aborted attempt stopped locating: any ballot may still hide a bad
	// statement, so nothing it combined is trusted.
	aborted := len(bad) >= abortFailures

	// Stage C: hot-index computation for verified openings, then install
	// fully-clean ballots into the cache (worker-owned; stages A/B only
	// read it).
	for bi := range outs {
		out := &outs[bi]
		if out.cached || aborted || len(out.fails) > 0 {
			continue
		}
		for i := range out.cb.openings {
			or := &out.cb.openings[i]
			hot, err := (elgamal.VectorOpening{Ms: or.Ms, Rs: or.Rs}).HotIndex()
			if err != nil {
				out.fails = append(out.fails, rowCheck{
					desc: fmt.Sprintf("row %d/%d/%d is not a unit vector: %v", or.Serial, or.Part, or.Row, err),
				})
				break
			}
			or.HotIndex = hot
		}
		if len(out.fails) > 0 {
			continue
		}
		n.combineCache[ballots[bi].Serial] = out.cb
	}

	var fails []rowCheck
	for bi := range outs {
		fails = append(fails, outs[bi].fails...)
	}
	if fails = append(fails, tallyFails...); len(fails) > 0 {
		return nil, n.blameFailures(env, cands, fails)
	}

	// Stage D: everything verified; the counts are the tally opening.
	res := &Result{
		Counts:  make([]int64, env.m),
		TallyMs: make([]*big.Int, env.m),
		TallyRs: make([]*big.Int, env.m),
	}
	for j := 0; j < env.m; j++ {
		if env.agg == nil {
			// No votes cast: all counts zero, nothing to open.
			res.TallyMs[j], res.TallyRs[j] = new(big.Int), new(big.Int)
			continue
		}
		s := &stmts[tally+j]
		if !s.m.IsInt64() {
			return nil, nil // a count past 2⁶³: not a tally any election produces
		}
		res.Counts[j], res.TallyMs[j], res.TallyRs[j] = s.m.Int64(), s.m, s.r
	}
	for bi := range ballots {
		cb := n.combineCache[ballots[bi].Serial]
		if cb == nil {
			return nil, nil
		}
		res.Openings = append(res.Openings, cb.openings...)
		res.Proofs = append(res.Proofs, cb.proofs...)
	}
	return res, nil
}

// combineRow interpolates one row's statements under lam: m bit proofs and
// the sum proof for a row of a used part, m openings for an audit row.
// Returns nil if any share is missing (cannot happen for ingress-validated
// posts; defensive).
func (env *combineEnv) combineRow(subset []*TrusteePost, lam []*big.Int, bi int, k combineKey, row *ea.BBRow, proven bool) []statement {
	stmts := make([]statement, 0, env.m+1)
	for col := 0; col < env.m; col++ {
		s := statement{kind: stmtOpening, bi: bi, k: k, col: col, ct: row.Commitment[col]}
		if proven {
			s.kind, s.row = stmtBit, row
			s.c = zkp.DeriveChallenge(env.master, k.serial, k.part, k.row, col)
		}
		stmts = append(stmts, s)
	}
	if proven {
		stmts = append(stmts, statement{kind: stmtSum, bi: bi, k: k, row: row,
			c: zkp.DeriveChallenge(env.master, k.serial, k.part, k.row, zkp.SumProofCol)})
	}
	for i := range stmts {
		if !env.combine(&stmts[i], subset, lam) {
			return nil
		}
	}
	return stmts
}

// combine sets s's scalars to what sub's shares interpolate to under lam,
// the Lagrange coefficients of sub. It reports false if a post lacks the
// share.
func (env *combineEnv) combine(s *statement, sub []*TrusteePost, lam []*big.Int) bool {
	switch s.kind {
	case stmtOpening, stmtTally:
		ms := make([]*big.Int, len(sub))
		rs := make([]*big.Int, len(sub))
		for i, p := range sub {
			shareMs, shareRs := p.TallyMs, p.TallyRs
			if s.kind == stmtOpening {
				o := env.shares[p.Trustee].open[s.k]
				if o == nil {
					return false
				}
				shareMs, shareRs = o.Ms, o.Rs
			}
			ms[i], rs[i] = shareMs[s.col], shareRs[s.col]
		}
		s.m, s.r = shamir.Interpolate(lam, ms), shamir.Interpolate(lam, rs)
	case stmtBit:
		bits := make([]zkp.BitFinal, len(sub))
		for i, p := range sub {
			pf := env.shares[p.Trustee].proof[s.k]
			if pf == nil {
				return false
			}
			bits[i] = pf.Bits[s.col]
		}
		s.bit = zkp.CombineBitFinals(lam, bits)
	case stmtSum:
		sums := make([]zkp.SumFinal, len(sub))
		for i, p := range sub {
			pf := env.shares[p.Trustee].proof[s.k]
			if pf == nil {
				return false
			}
			sums[i] = pf.Sum
		}
		s.sum = zkp.CombineSumFinals(lam, sums)
	}
	return true
}

// --- blame protocol -------------------------------------------------------

// blameCheck builds the rowCheck that re-combines a failed statement under
// an arbitrary subset and re-verifies it per element.
func (env *combineEnv) blameCheck(s statement) rowCheck {
	return rowCheck{
		desc: s.String(),
		check: func(sub []*TrusteePost) bool {
			lam, err := shamir.LagrangeCoefficients(shareIndices(sub))
			return err == nil && env.combine(&s, sub, lam) && s.verify(env.ck)
		},
	}
}

// blameFailures identifies the specific bad trustees behind failed rows.
// For each failure it first finds a passing subset for that single row
// (spare swaps first, then full per-row enumeration — cheap, since it
// re-verifies one row, not the whole board), then classifies every other
// candidate against that known-good base: replace one member with the
// candidate; if the row check fails, the candidate's share for the row is
// bad. k garbage trustees therefore cost O(k·rows) extra work instead of
// the seed's exponential full re-combinations.
func (n *Node) blameFailures(env *combineEnv, cands []*TrusteePost, fails []rowCheck) []int {
	ht := env.man.TrusteeThreshold
	blamed := make(map[int]bool)
	analyzed := 0
	for _, f := range fails {
		if f.check == nil {
			continue // unrecoverable, not a trustee fault
		}
		if analyzed >= maxBlamedFailures {
			break
		}
		analyzed++
		good := findGoodSubset(cands, ht, f)
		if good == nil {
			continue // inconclusive: every subset fails; need more posts
		}
		inGood := make(map[int]bool, ht)
		for _, p := range good {
			inGood[p.Trustee] = true
		}
		for _, p := range cands {
			if inGood[p.Trustee] || blamed[p.Trustee] {
				continue
			}
			probe := append([]*TrusteePost(nil), good...)
			probe[0] = p
			if !f.check(probe) {
				blamed[p.Trustee] = true
			}
		}
	}
	out := make([]int, 0, len(blamed))
	for t := range blamed {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// findGoodSubset searches for a size-ht subset passing the row check:
// single spare-swaps against the primary subset first (the common case —
// one bad member, ht+1 posts available), then full enumeration over the
// candidates. Returns nil if nothing passes.
func findGoodSubset(cands []*TrusteePost, ht int, f rowCheck) []*TrusteePost {
	subset := cands[:ht]
	spares := cands[ht:]
	probe := make([]*TrusteePost, ht)
	for _, sp := range spares {
		for i := range subset {
			copy(probe, subset)
			probe[i] = sp
			if f.check(probe) {
				return append([]*TrusteePost(nil), probe...)
			}
		}
	}
	// Per-row subset enumeration: C(len(cands), ht) checks of ONE row.
	var rec func(start, depth int) []*TrusteePost
	rec = func(start, depth int) []*TrusteePost {
		if depth == ht {
			if f.check(probe) {
				return append([]*TrusteePost(nil), probe...)
			}
			return nil
		}
		for i := start; i <= len(cands)-(ht-depth); i++ {
			probe[depth] = cands[i]
			if got := rec(i+1, depth+1); got != nil {
				return got
			}
		}
		return nil
	}
	return rec(0, 0)
}

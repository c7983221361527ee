// Package vc implements the Vote Collection subsystem, the paper's central
// contribution (§III-E): a distributed set of Nv nodes (tolerating
// fv < Nv/3 Byzantine) that collects votes during election hours and hands
// each voter a receipt proving her vote was recorded as cast — without any
// cryptography on the voter's device.
//
// The voting protocol per ballot: the node a voter contacts (the responder)
// validates the vote code against its salted-hash commitments, multicasts
// ENDORSE, gathers Nv-fv ENDORSEMENT signatures into a uniqueness
// certificate (UCERT), then multicasts VOTE_P disclosing its receipt share.
// Every node that sees a valid VOTE_P joins in, and whoever collects Nv-fv
// valid shares reconstructs the receipt. The UCERT guarantees at most one
// vote code per ballot can ever be certified; receipt reconstruction
// requires Nv-fv shares, so any two reconstructions share an honest node —
// the pivot of the vote-set-consensus safety argument.
//
// There is no total ordering and no state machine replication: requests for
// different ballots proceed completely independently (§II).
package vc

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"sync"
	"time"

	"ddemos/internal/clock"
	"ddemos/internal/consensus"
	"ddemos/internal/crypto/group"
	"ddemos/internal/crypto/shamir"
	"ddemos/internal/crypto/votecode"
	"ddemos/internal/ea"
	"ddemos/internal/journal"
	"ddemos/internal/sig"
	"ddemos/internal/store"
	"ddemos/internal/transport"
	"ddemos/internal/wire"
)

// Sentinel errors surfaced to voters.
var (
	// ErrOutsideHours is returned outside the election window.
	ErrOutsideHours = errors.New("vc: outside election hours")
	// ErrUnknownBallot is returned for serials not in this election.
	ErrUnknownBallot = errors.New("vc: unknown ballot serial")
	// ErrInvalidCode is returned when a vote code doesn't match any line.
	ErrInvalidCode = errors.New("vc: invalid vote code")
	// ErrAlreadyVoted is returned when the ballot is bound to another code.
	ErrAlreadyVoted = errors.New("vc: ballot already used with a different vote code")
	// ErrStopped is returned after the node shuts down.
	ErrStopped = errors.New("vc: node stopped")
)

// endorseDomain is the signature domain of ENDORSEMENT messages.
const endorseDomain = "ddemos/v1/endorse"

// voteSetDomain is the signature domain for the final vote set pushed to BB.
const voteSetDomain = "ddemos/v1/vote-set"

// Byzantine selects a fault-injection behaviour for testing the protocol's
// tolerance thresholds. The zero value is honest.
type Byzantine int

// Byzantine behaviours.
const (
	// Honest follows the protocol.
	Honest Byzantine = iota
	// Equivocator endorses every code it is asked to, violating its
	// uniqueness duty (the attack UCERTs defend against).
	Equivocator
	// ShareCorruptor sends garbage receipt shares in VOTE_P.
	ShareCorruptor
	// ConsensusLiar flips all its inputs to vote-set consensus.
	ConsensusLiar
)

// Config assembles a VC node.
type Config struct {
	Init *ea.VCInit
	// Store defaults to an in-memory store built from Init.Ballots.
	Store store.Store
	// Endpoint carries inter-VC traffic. Node i must be network id i.
	Endpoint transport.Endpoint
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Coin defaults to a hash coin derived from the election ID.
	Coin consensus.Coin
	// Engine selects the vote-set-consensus engine (see ParseEngine);
	// defaults to the paper's interlocked protocol.
	Engine EngineFactory
	// Byzantine selects fault injection (tests only).
	Byzantine Byzantine
}

// numWorkers sizes the message-processing pool.
const numWorkers = 8

// Node is one Vote Collector.
type Node struct {
	manifest ea.Manifest
	self     uint16
	nv, fv   int
	hv       int // Nv - fv: endorsement / share threshold
	priv     ed25519.PrivateKey
	eaPub    ed25519.PublicKey
	vcPubs   []ed25519.PublicKey
	mskShare ea.MskShare
	st       store.Store
	ep       transport.Endpoint
	clk      clock.Clock
	coin     consensus.Coin
	engine   EngineFactory
	byz      Byzantine
	peers    []transport.NodeID

	shards [64]shard

	endorseMu  sync.Mutex
	collectors map[collectorKey]*endorseCollector

	vscMu      sync.Mutex
	vsc        *vscEngine
	vscBuffer  []bufferedMsg
	vscDone    bool          // vote-set consensus completed (possibly recovered)
	vscDurable bool          // the vsc record landed in the journal (Strict duty)
	vscResult  []VotedBallot // the agreed set, stable across restarts
	served     serveMeter    // certified entries answered to each peer's pulls

	// journal, when attached via RecoverWithOptions/RecoverBackend, logs
	// every ballot state transition before the node acts on it (DESIGN.md,
	// "Durability and recovery"). nil = memory-only node. journalPolicy
	// decides whether a failed append refuses the dependent ack (Strict) or
	// counts and continues (Available).
	journal       journal.Backend
	journalPolicy journal.AckPolicy

	metrics Metrics

	workers []chan []job
	done    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup

	links *transport.Authenticated // set by Open: the tag check under ep
}

type shard struct {
	mu      sync.Mutex
	ballots map[uint64]*ballotState
}

type collectorKey struct {
	serial uint64
	code   string
}

type endorseCollector struct {
	sigs map[uint16][]byte
	need int
	done chan struct{}
}

type bufferedMsg struct {
	from uint16
	msg  wire.Message
}

type job struct {
	from uint16
	msg  wire.Message
}

// ballotState is the runtime state of one ballot on this node.
type ballotState struct {
	mu           sync.Mutex
	status       Status
	endorsedCode []byte // the single code this node will endorse
	usedCode     []byte
	part         uint8
	row          int
	cert         *wire.UCert
	root         *[32]byte // the ballot's EA-signed root; held only once verified
	shares       map[uint32]*big.Int
	sentVoteP    bool
	receipt      []byte
	waiters      []chan voteOutcome

	// Durability marks, maintained for Strict-policy nodes: set when the
	// endorsement / certified-binding / receipt record landed in the
	// journal (or replayed from it). A Strict node re-attempts the append
	// before serving the corresponding fast path or external action, so an
	// ack can never ride on a record a failed journal silently dropped.
	endorsedDurable bool
	bindingDurable  bool
	receiptDurable  bool
}

type voteOutcome struct {
	receipt []byte
	err     error
}

// Status is a ballot's voting-protocol state (§III-E).
type Status uint8

// Ballot states.
const (
	NotVoted Status = iota
	Pending
	Voted
)

// New builds a node from its initialization data.
func New(cfg Config) (*Node, error) {
	if cfg.Init == nil {
		return nil, errors.New("vc: missing init data")
	}
	if cfg.Endpoint == nil {
		return nil, errors.New("vc: missing endpoint")
	}
	man := cfg.Init.Manifest
	n := &Node{
		manifest: man,
		self:     uint16(cfg.Init.Index), //nolint:gosec // <= 64
		nv:       man.NumVC,
		fv:       man.FaultyVC(),
		hv:       man.ReceiptThreshold(),
		priv:     cfg.Init.Private,
		eaPub:    man.EAPublic,
		vcPubs:   man.VCPublics,
		mskShare: cfg.Init.Msk,
		st:       cfg.Store,
		ep:       cfg.Endpoint,
		clk:      cfg.Clock,
		coin:     cfg.Coin,
		engine:   cfg.Engine,
		byz:      cfg.Byzantine,
		done:     make(chan struct{}),

		collectors: make(map[collectorKey]*endorseCollector),
	}
	if n.st == nil {
		n.st = store.NewMem(cfg.Init.Ballots)
	}
	if n.clk == nil {
		n.clk = clock.Real{}
	}
	if n.coin == nil {
		n.coin = consensus.NewHashCoin([]byte(man.ElectionID))
	}
	if n.engine == nil {
		n.engine = InterlockedEngine
	}
	for i := range n.shards {
		n.shards[i].ballots = make(map[uint64]*ballotState)
	}
	n.peers = make([]transport.NodeID, n.nv)
	for i := range n.peers {
		n.peers[i] = transport.NodeID(i) //nolint:gosec // <= 64
	}
	n.workers = make([]chan []job, numWorkers)
	for i := range n.workers {
		n.workers[i] = make(chan []job, 256)
	}
	return n, nil
}

// Start launches the message pump and worker pool.
func (n *Node) Start() {
	for i := range n.workers {
		n.wg.Add(1)
		go n.workerLoop(n.workers[i])
	}
	n.wg.Add(1)
	go n.pump()
}

// Stop shuts the node down and waits for its goroutines. An attached
// journal is synced and closed, so a clean stop loses nothing and a later
// recovery from the same directory resumes exactly here.
func (n *Node) Stop() {
	n.stopped.Do(func() {
		close(n.done)
		_ = n.ep.Close()
	})
	n.wg.Wait()
	if n.journal != nil {
		if err := n.journal.Close(); err != nil {
			n.metrics.JournalErrors.Add(1)
		}
	}
}

// Index returns the node's 0-based index.
func (n *Node) Index() int { return int(n.self) }

// MskShare returns the node's signed master-key share (pushed to BB nodes
// after vote-set consensus).
func (n *Node) MskShare() ea.MskShare { return n.mskShare }

// pumpDrainMax bounds how many queued envelopes one pump iteration drains
// into a single dispatch round.
const pumpDrainMax = 256

// maxStagedJobs bounds the decoded-but-undispatched ballot messages of one
// round: a single Batch envelope can unpack into thousands of messages, so
// memory must be bounded by messages, not envelopes. (One envelope can still
// stage up to wire's per-batch frame cap; this bounds the amplification
// across envelopes.)
const maxStagedJobs = 4096

// pump decodes frames and routes them: ballot-protocol messages to the
// serial-affine worker pool (per-ballot ordering, parallel across ballots),
// consensus traffic to the vote-set-consensus engine. This is the dispatch
// stage of the batched pipeline: wire.Batch envelopes are split inline, and
// everything already queued on the endpoint is drained greedily, so each
// worker receives its share of a whole receive burst in one channel
// operation and can validate it per lock acquisition.
func (n *Node) pump() {
	defer n.wg.Done()
	byWorker := make([][]job, len(n.workers))
	for {
		select {
		case <-n.done:
			return
		case env, ok := <-n.ep.Recv():
			if !ok {
				return
			}
			staged := n.ingest(env, byWorker)
			drain := true
			for drained := 1; drain && drained < pumpDrainMax && staged < maxStagedJobs; drained++ {
				select {
				case env, ok = <-n.ep.Recv():
					if !ok {
						n.dispatchBatches(byWorker)
						return
					}
					staged += n.ingest(env, byWorker)
				default:
					drain = false
				}
			}
			n.dispatchBatches(byWorker)
		}
	}
}

// ingest decodes one envelope — splitting Batch envelopes from peers that
// coalesce even when our own endpoint stack does not unbatch — and stages
// its messages for dispatch, returning how many jobs it staged.
func (n *Node) ingest(env transport.Envelope, byWorker [][]job) int {
	from := uint16(env.From) //nolint:gosec // validated below
	if int(from) >= n.nv {
		n.metrics.BadMessages.Add(1)
		return 0
	}
	msg, err := wire.Decode(env.Payload)
	if err != nil {
		n.metrics.BadMessages.Add(1)
		return 0
	}
	if b, ok := msg.(*wire.Batch); ok {
		msgs, err := b.Unpack()
		if err != nil {
			n.metrics.BadMessages.Add(1)
			return 0
		}
		staged := 0
		for _, m := range msgs {
			staged += n.stage(from, m, byWorker)
		}
		return staged
	}
	return n.stage(from, msg, byWorker)
}

// stage routes one decoded message: ballot traffic to its serial's worker
// batch (returning 1), consensus traffic inline to the vote-set-consensus
// engine.
func (n *Node) stage(from uint16, msg wire.Message, byWorker [][]job) int {
	var serial uint64
	switch m := msg.(type) {
	case *wire.Endorse:
		serial = m.Serial
	case *wire.Endorsement:
		serial = m.Serial
	case *wire.VoteP:
		serial = m.Serial
	case *wire.AnnounceSet, *wire.Consensus, *wire.RecoverRequest, *wire.RecoverResponse, *wire.VSCFinal,
		*wire.RBCDigest, *wire.RBCPull, *wire.RBCEcho, *wire.RBCReady:
		n.routeConsensus(from, msg)
		return 0
	default:
		n.metrics.BadMessages.Add(1)
		return 0
	}
	w := serial % uint64(len(n.workers))
	byWorker[w] = append(byWorker[w], job{from, msg})
	return 1
}

// dispatchBatches hands each worker its staged jobs in one send and resets
// the staging slices for the next round.
func (n *Node) dispatchBatches(byWorker [][]job) {
	for i, jobs := range byWorker {
		if len(jobs) == 0 {
			continue
		}
		batch := make([]job, len(jobs))
		copy(batch, jobs)
		byWorker[i] = jobs[:0]
		select {
		case n.workers[i] <- batch:
		case <-n.done:
			return
		}
	}
}

func (n *Node) workerLoop(ch chan []job) {
	defer n.wg.Done()
	for {
		select {
		case <-n.done:
			return
		case batch := <-ch:
			n.processBatch(batch)
		}
	}
}

// processBatch handles one worker batch. ENDORSEMENTs commute (each only
// deposits a signature into a waiting collector) and are validated together;
// ENDORSEs run in arrival order; VOTE_Ps are validated as one batch and
// applied per-serial under a single state-lock acquisition. Relative
// reordering across these classes is indistinguishable from network
// reordering, which the protocol already tolerates.
func (n *Node) processBatch(batch []job) {
	var ends, votePs []job
	for _, j := range batch {
		switch m := j.msg.(type) {
		case *wire.Endorsement:
			ends = append(ends, j)
		case *wire.Endorse:
			n.onEndorse(j.from, m)
		case *wire.VoteP:
			votePs = append(votePs, j)
		}
	}
	if len(ends) > 0 {
		n.onEndorsementBatch(ends)
	}
	if len(votePs) > 0 {
		n.onVotePBatch(votePs)
	}
}

// state returns (creating if needed) the runtime state for a serial.
func (n *Node) state(serial uint64) *ballotState {
	sh := &n.shards[serial%64]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.ballots[serial]
	if !ok {
		st = &ballotState{}
		sh.ballots[serial] = st
	}
	return st
}

// peekState returns the runtime state for a serial, or nil, without
// allocating — unverified messages must not materialize persistent state.
func (n *Node) peekState(serial uint64) *ballotState {
	sh := &n.shards[serial%64]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.ballots[serial]
}

// withinHours checks the paper's only clock dependency.
func (n *Node) withinHours() bool {
	now := n.clk.Now()
	return !now.Before(n.manifest.VotingStart) && now.Before(n.manifest.VotingEnd)
}

// locate validates a vote code against the ballot's hash commitments,
// returning the store data and the (part, row) of the matching line.
func (n *Node) locate(serial uint64, code []byte) (*store.BallotData, uint8, int, error) {
	bd, err := n.st.Get(serial)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%w: %d", ErrUnknownBallot, serial)
	}
	for part := 0; part < 2; part++ {
		for row := range bd.Lines[part] {
			l := &bd.Lines[part][row]
			if votecode.VerifyCommit(l.Hash, code, l.Salt[:]) {
				return bd, uint8(part), row, nil //nolint:gosec // part < 2
			}
		}
	}
	return nil, 0, 0, ErrInvalidCode
}

// ownShare extracts and validates this node's receipt share for a line.
func (n *Node) ownShare(bd *store.BallotData, part uint8, row int) (shamir.Share, error) {
	v, err := group.DecodeScalar(bd.Lines[part][row].Share[:])
	if err != nil {
		return shamir.Share{}, fmt.Errorf("vc: corrupt stored share: %w", err)
	}
	return shamir.Share{Index: uint32(n.self) + 1, Value: v}, nil
}

// SubmitVote is the voter-facing entry point (the responder role). It
// returns the reconstructed receipt, blocking until the protocol completes
// or ctx expires.
func (n *Node) SubmitVote(ctx context.Context, serial uint64, code []byte) ([]byte, error) {
	t0 := time.Now()
	if !n.withinHours() {
		return nil, ErrOutsideHours
	}
	bd, part, row, err := n.locate(serial, code)
	if err != nil {
		return nil, err
	}
	st := n.state(serial)

	var newlyEndorsed, endorseDurable bool
	st.mu.Lock()
	switch st.status {
	case Voted:
		if bytes.Equal(st.usedCode, code) {
			r := st.receipt
			durable := st.receiptDurable
			st.mu.Unlock()
			if err := n.ensureReceiptDurable(st, serial, code, r, durable); err != nil {
				return nil, err
			}
			return r, nil
		}
		st.mu.Unlock()
		return nil, ErrAlreadyVoted
	case Pending:
		if !bytes.Equal(st.usedCode, code) {
			st.mu.Unlock()
			return nil, ErrAlreadyVoted
		}
		if n.strictJournal() && !st.bindingDurable {
			// The binding append failed on an earlier flow, so no VOTE_P
			// necessarily ever left this node — waiting would hang on a
			// disclosure nobody made. Fall through and re-drive the flow:
			// collection is idempotent, and the re-binding arm below
			// re-journals and re-discloses. The endorsement record it may
			// append below must find its duty installed (a peer's VOTE_P can
			// have bound the ballot before any ENDORSE).
			if st.endorsedCode == nil {
				st.endorsedCode = append([]byte(nil), code...)
			}
			endorseDurable = st.endorsedDurable
			break
		}
		// Another flow is reconstructing this same vote: wait with it.
		ch := make(chan voteOutcome, 1)
		st.waiters = append(st.waiters, ch)
		st.mu.Unlock()
		return n.awaitOutcome(ctx, ch)
	case NotVoted:
		if st.endorsedCode != nil && !bytes.Equal(st.endorsedCode, code) {
			st.mu.Unlock()
			return nil, ErrAlreadyVoted
		}
		newlyEndorsed = st.endorsedCode == nil
		st.endorsedCode = append([]byte(nil), code...)
		endorseDurable = st.endorsedDurable
	}
	st.mu.Unlock()
	if newlyEndorsed || (n.strictJournal() && !endorseDurable) {
		// Journal the endorsement duty before asking peers to match it.
		if err := n.journalAppend(record{kind: recEndorsed, serial: serial, code: code}.bytes()); err != nil {
			if n.strictJournal() {
				n.metrics.StrictRefusals.Add(1)
				return nil, fmt.Errorf("vc: endorsement not durable: %w", err)
			}
		} else {
			st.mu.Lock()
			st.endorsedDurable = true
			st.mu.Unlock()
		}
	}

	// Collect Nv-fv endorsements (ours included).
	cert, err := n.collectEndorsements(ctx, serial, code)
	if err != nil {
		return nil, err
	}
	n.metrics.observeEndorse(time.Since(t0))

	share, err := n.ownShare(bd, part, row)
	if err != nil {
		return nil, err
	}

	ch := make(chan voteOutcome, 1)
	var recs [][]byte
	st.mu.Lock()
	switch {
	case st.status == NotVoted:
		st.status = Pending
		st.usedCode = append([]byte(nil), code...)
		st.part, st.row = part, row
		st.cert = cert
		st.shares = map[uint32]*big.Int{share.Index: share.Value}
		st.sentVoteP = true
		recs = append(recs,
			record{kind: recPending, serial: serial, code: code, part: part, row: row, cert: cert}.bytes(),
			record{kind: recShare, serial: serial, share: share}.bytes())
	case n.strictJournal() && !st.bindingDurable &&
		st.status == Pending && bytes.Equal(st.usedCode, code):
		// A racing flow bound the ballot but its binding append failed (or
		// has not landed): re-attempt the records before this flow's
		// VOTE_P can leave, or a restart would forget the disclosure. The
		// (part, row) come from this flow's own locate() — the state's pair
		// is unset when the binding arrived via an adopted cert.
		recs = append(recs,
			record{kind: recPending, serial: serial, code: st.usedCode, part: part, row: row, cert: st.cert}.bytes(),
			record{kind: recShare, serial: serial, share: share}.bytes())
	}
	switch {
	case st.status == Voted && bytes.Equal(st.usedCode, code):
		// A racing applyShares completed the ballot while we collected
		// endorsements. Same durability duty as the top-of-function fast
		// path: Strict re-attempts the voted record before release.
		r := st.receipt
		durable := st.receiptDurable
		st.mu.Unlock()
		if err := n.ensureReceiptDurable(st, serial, code, r, durable); err != nil {
			return nil, err
		}
		return r, nil
	case !bytes.Equal(st.usedCode, code):
		st.mu.Unlock()
		return nil, ErrAlreadyVoted
	default:
		st.waiters = append(st.waiters, ch)
		st.mu.Unlock()
	}

	// The certified binding and our disclosed share are journaled before
	// VOTE_P leaves: once a peer can act on our share, a restart must
	// remember we bound the ballot and disclosed. A Strict node withholds
	// the disclosure (and fails the submission) when the records did not
	// land; the next attempt re-journals them.
	bindErr := n.journalAppend(recs...)
	if bindErr != nil && n.strictJournal() {
		n.metrics.StrictRefusals.Add(1)
		// No VOTE_P without the records behind it. Resetting sentVoteP lets
		// a peer's VOTE_P re-trigger disclosure after the journal heals (the
		// mirror of the applyShares failure path); a client resubmission
		// re-drives the flow through the Pending fall-through above.
		st.mu.Lock()
		st.sentVoteP = false
		st.mu.Unlock()
		return nil, fmt.Errorf("vc: vote binding not durable: %w", bindErr)
	}
	if len(recs) > 0 && bindErr == nil {
		st.mu.Lock()
		st.bindingDurable = true
		st.mu.Unlock()
	}
	n.multicastVoteP(serial, code, share, bd, part, row, cert)
	receipt, err := n.awaitOutcome(ctx, ch)
	if err == nil {
		n.metrics.observeVote(time.Since(t0))
		n.metrics.VotesAccepted.Add(1)
	}
	return receipt, err
}

// ensureReceiptDurable is the Strict fast-path duty before re-serving a
// receipt from memory: if the voted record was lost to an earlier failed
// append, re-attempt it — no release without a record a restart can replay.
// No-op under Available or when already durable.
func (n *Node) ensureReceiptDurable(st *ballotState, serial uint64, code, receipt []byte, durable bool) error {
	if !n.strictJournal() || durable {
		return nil
	}
	if err := n.journalAppend(record{kind: recVoted, serial: serial, code: code, receipt: receipt}.bytes()); err != nil {
		n.metrics.StrictRefusals.Add(1)
		return fmt.Errorf("vc: receipt not durable: %w", err)
	}
	st.mu.Lock()
	st.receiptDurable = true
	st.mu.Unlock()
	return nil
}

func (n *Node) awaitOutcome(ctx context.Context, ch chan voteOutcome) ([]byte, error) {
	select {
	case out := <-ch:
		return out.receipt, out.err
	case <-ctx.Done():
		return nil, fmt.Errorf("vc: waiting for receipt: %w", ctx.Err())
	case <-n.done:
		return nil, ErrStopped
	}
}

// collectEndorsements multicasts ENDORSE and waits for Nv-fv valid
// signatures, returning the uniqueness certificate.
func (n *Node) collectEndorsements(ctx context.Context, serial uint64, code []byte) (*wire.UCert, error) {
	key := collectorKey{serial: serial, code: string(code)}
	n.endorseMu.Lock()
	col, exists := n.collectors[key]
	if !exists {
		col = &endorseCollector{sigs: make(map[uint16][]byte, n.hv), need: n.hv, done: make(chan struct{})}
		// Self-endorsement.
		col.sigs[n.self] = n.endorseSig(serial, code)
		n.collectors[key] = col
	}
	n.endorseMu.Unlock()

	// Multicast ENDORSE on every attempt, not only the collector-creating
	// one: a collector can outlive a timed-out collection (lost replies are
	// never retransmitted), and a retry must re-request or it waits forever.
	// Peers endorse idempotently and duplicate replies dedup, so the extra
	// multicast under benign same-code races is harmless.
	frame := wire.Encode(&wire.Endorse{Serial: serial, Code: code})
	if err := transport.Multicast(n.ep, n.peers, frame); err != nil {
		n.metrics.SendErrors.Add(1)
	}
	select {
	case <-col.done:
	case <-ctx.Done():
		return nil, fmt.Errorf("vc: collecting endorsements: %w", ctx.Err())
	case <-n.done:
		return nil, ErrStopped
	}
	n.endorseMu.Lock()
	cert := &wire.UCert{Serial: serial, Code: append([]byte(nil), code...)}
	for signer, sg := range col.sigs {
		cert.Sigs = append(cert.Sigs, wire.SigEntry{Signer: signer, Sig: sg})
		if len(cert.Sigs) == n.hv {
			break
		}
	}
	delete(n.collectors, key)
	n.endorseMu.Unlock()
	return cert, nil
}

func (n *Node) endorseSig(serial uint64, code []byte) []byte {
	return sig.Sign(n.priv, endorseDomain, []byte(n.manifest.ElectionID), sig.Uint64Bytes(serial), code)
}

// VerifyUCert checks that cert carries at least threshold distinct valid
// endorsement signatures. Only a signer's first signature counts. It is the
// cold reference predicate that tests hold verifyCerts to: a pure function of
// its arguments, with every counted signature checked cryptographically. No
// message handler calls it — it stops at the threshold, so a certificate it
// accepts may still carry signatures nobody checked, and a node must not hold
// those (see verifyCerts).
func VerifyUCert(cert *wire.UCert, electionID string, vcPubs []ed25519.PublicKey, threshold int) bool {
	if cert == nil || len(cert.Sigs) < threshold {
		return false
	}
	var seen uint64 // signer bitmask: Nv <= 64 system-wide
	valid := 0
	for _, e := range cert.Sigs {
		if int(e.Signer) >= len(vcPubs) || e.Signer >= 64 || seen>>e.Signer&1 != 0 {
			continue
		}
		seen |= 1 << e.Signer
		if sig.Verify(vcPubs[e.Signer], e.Sig, endorseDomain,
			[]byte(electionID), sig.Uint64Bytes(cert.Serial), cert.Code) {
			valid++
			if valid >= threshold {
				return true
			}
		}
	}
	return false
}

// verifyCerts checks a batch of uniqueness certificates (nil elements are
// skipped) and returns, for each, the certificate reduced to Nv-fv signatures
// known to be valid, or nil if it has fewer. Whether the result is nil is
// exactly VerifyUCert's verdict, but only signatures this node has not
// already vouched for reach Ed25519: a signature counts without crypto when
// the certificate the node holds for that ballot carries the same signer's
// byte-identical signature over the same (serial, code). That is sound
// because every held signature has been verified — a held certificate was
// assembled from individually verified endorsements (vote), returned by this
// function (VOTE_P, RECOVER-RESPONSE, ACS payloads), or replayed
// from the node's own journal of those — and verification is deterministic.
// This is the only certificate check a message handler may use: it is what
// keeps an unverified signature riding on Nv-fv valid ones out of the state. The memo is per signature, not per certificate: a peer's
// UCERT may legally pin a different Nv-fv signer subset. The signatures left
// over, across the whole batch, go through one sig.VerifyMany.
func (n *Node) verifyCerts(certs []*wire.UCert) []*wire.UCert {
	type sigRef struct {
		cert   int
		signer uint16
	}
	valid := make([]uint64, len(certs)) // per cert: signers whose first signature is known valid
	election := []byte(n.manifest.ElectionID)
	var items []sig.Item
	var refs []sigRef
	var memoHits int
	for i, c := range certs {
		if c == nil || len(c.Sigs) < n.hv {
			continue
		}
		held := n.heldCert(c.Serial, c.Code)
		start := len(items)
		var seen uint64
		for j := range c.Sigs {
			e := &c.Sigs[j]
			if int(e.Signer) >= n.nv || seen>>e.Signer&1 != 0 {
				continue
			}
			seen |= 1 << e.Signer
			if held != nil && hasSig(held, e) {
				valid[i] |= 1 << e.Signer
				memoHits++
				continue
			}
			items = append(items, sig.Item{Pub: n.vcPubs[e.Signer], Sig: e.Sig, Parts: [][]byte{
				election, sig.Uint64Bytes(c.Serial), c.Code,
			}})
			refs = append(refs, sigRef{cert: i, signer: e.Signer})
		}
		// Skip the crypto when it cannot change the verdict: the memo alone
		// reaches the threshold, or the candidates cannot.
		if hits := bits.OnesCount64(valid[i]); hits >= n.hv || hits+len(items)-start < n.hv {
			items, refs = items[:start], refs[:start]
		}
	}
	n.metrics.CertSigMemoHits.Add(int64(memoHits))
	n.metrics.CertSigVerifies.Add(int64(len(items)))
	for k, ok := range sig.VerifyMany(endorseDomain, items) {
		if ok {
			valid[refs[k].cert] |= 1 << refs[k].signer
		}
	}

	out := make([]*wire.UCert, len(certs))
	for i, c := range certs {
		if bits.OnesCount64(valid[i]) < n.hv {
			continue
		}
		if len(c.Sigs) == n.hv {
			out[i] = c // the honest shape: every signature distinct and known valid
			continue
		}
		// Keep the first Nv-fv known-valid signatures, in order.
		kept := make([]wire.SigEntry, 0, n.hv)
		var seen uint64
		for _, e := range c.Sigs {
			if int(e.Signer) >= n.nv || seen>>e.Signer&1 != 0 {
				continue
			}
			seen |= 1 << e.Signer
			if valid[i]>>e.Signer&1 != 0 && len(kept) < n.hv {
				kept = append(kept, e)
			}
		}
		out[i] = &wire.UCert{Serial: c.Serial, Code: c.Code, Sigs: kept}
	}
	return out
}

// heldCert returns the certificate this node holds for (serial, code), or
// nil. Held certificates are immutable once installed.
func (n *Node) heldCert(serial uint64, code []byte) *wire.UCert {
	st := n.peekState(serial)
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.cert == nil || st.cert.Serial != serial || !bytes.Equal(st.cert.Code, code) {
		return nil
	}
	return st.cert
}

// hasSig reports whether cert carries signer e.Signer's signature
// byte-identical to e.Sig.
func hasSig(cert *wire.UCert, e *wire.SigEntry) bool {
	for i := range cert.Sigs {
		if cert.Sigs[i].Signer == e.Signer && bytes.Equal(cert.Sigs[i].Sig, e.Sig) {
			return true
		}
	}
	return false
}

// onEndorse handles a responder's endorsement request: endorse iff we have
// not endorsed a different code for this ballot (an Equivocator endorses
// anything).
func (n *Node) onEndorse(from uint16, m *wire.Endorse) {
	if !n.withinHours() {
		return
	}
	if _, _, _, err := n.locate(m.Serial, m.Code); err != nil {
		return
	}
	st := n.state(m.Serial)
	var newlyEndorsed, endorseDurable bool
	st.mu.Lock()
	switch {
	case n.byz == Equivocator:
		// Sign regardless — the attack UCERT formation must defeat.
	case st.endorsedCode == nil && (st.status == NotVoted || bytes.Equal(st.usedCode, m.Code)):
		// First endorsement of this code — also when a VOTE_P bound the
		// ballot to it before any ENDORSE arrived: the duty is installed in
		// memory before its record is appended, like every other transition,
		// so a replay rebuilds exactly this state.
		st.endorsedCode = append([]byte(nil), m.Code...)
		newlyEndorsed = true
	case !bytes.Equal(st.endorsedCode, m.Code) && !bytes.Equal(st.usedCode, m.Code):
		st.mu.Unlock()
		return
	}
	endorseDurable = st.endorsedDurable
	st.mu.Unlock()
	if newlyEndorsed || (n.strictJournal() && !endorseDurable && n.byz != Equivocator) {
		// The signature is a uniqueness promise: journal it before the
		// reply carries it away, or a restarted node could endorse a
		// different code for the same ballot. A Strict node stays silent
		// when the record did not land — no signature without durability.
		if err := n.journalAppend(record{kind: recEndorsed, serial: m.Serial, code: m.Code}.bytes()); err != nil {
			if n.strictJournal() {
				n.metrics.StrictRefusals.Add(1)
				return
			}
		} else {
			st.mu.Lock()
			st.endorsedDurable = true
			st.mu.Unlock()
		}
	}
	reply := &wire.Endorsement{Serial: m.Serial, Code: m.Code, Signer: n.self, Sig: n.endorseSig(m.Serial, m.Code)}
	if err := n.ep.Send(transport.NodeID(from), wire.Encode(reply)); err != nil {
		n.metrics.SendErrors.Add(1)
	}
}

// onEndorsementBatch records a batch of endorsement signatures: every
// signature in the batch is checked with one sig.VerifyMany call (duplicates
// verified once, large batches fanned out across CPUs) and the survivors are
// recorded under a single endorseMu acquisition — the per-message
// verify-lock-record loop collapsed to one pass per receive batch.
func (n *Node) onEndorsementBatch(batch []job) {
	msgs := make([]*wire.Endorsement, 0, len(batch))
	items := make([]sig.Item, 0, len(batch))
	for _, j := range batch {
		m := j.msg.(*wire.Endorsement)
		if m.Signer != j.from || int(m.Signer) >= len(n.vcPubs) {
			continue
		}
		msgs = append(msgs, m)
		items = append(items, sig.Item{Pub: n.vcPubs[m.Signer], Sig: m.Sig, Parts: [][]byte{
			[]byte(n.manifest.ElectionID), sig.Uint64Bytes(m.Serial), m.Code,
		}})
	}
	ok := sig.VerifyMany(endorseDomain, items)
	var bad int64
	n.endorseMu.Lock()
	for i, m := range msgs {
		if !ok[i] {
			bad++
			continue
		}
		col, found := n.collectors[collectorKey{serial: m.Serial, code: string(m.Code)}]
		if !found {
			continue
		}
		if _, dup := col.sigs[m.Signer]; dup {
			continue
		}
		col.sigs[m.Signer] = m.Sig
		if len(col.sigs) == col.need {
			close(col.done)
		}
	}
	n.endorseMu.Unlock()
	if bad > 0 {
		n.metrics.BadMessages.Add(bad)
	}
}

// multicastVoteP discloses the receipt share of line (part, row) of bd, with
// the EA's root signature and the share's audit path (a ShareCorruptor
// corrupts the share).
func (n *Node) multicastVoteP(serial uint64, code []byte, share shamir.Share, bd *store.BallotData, part uint8, row int, cert *wire.UCert) {
	value := group.ScalarBytes(share.Value)
	if n.byz == ShareCorruptor {
		value = make([]byte, 32)
		value[31] = 0x42
	}
	msg := &wire.VoteP{
		Serial:     serial,
		Code:       code,
		ShareIndex: share.Index,
		ShareValue: value,
		ShareSig:   bd.ShareSig[:],
		SharePath:  ea.SharePath(bd, part, row),
		Cert:       *cert,
	}
	if err := transport.Multicast(n.ep, n.peers, wire.Encode(msg)); err != nil {
		n.metrics.SendErrors.Add(1)
	}
}

// votePCandidate carries one VOTE_P through the batch validation stages.
// cert is the certificate verifyCerts returned for this (serial, code) —
// verified signatures only, not necessarily the bytes this message carried —
// or nil when the ballot state already holds a verified certificate. root is
// the ballot root the share folds up to.
type votePCandidate struct {
	from  uint16
	m     *wire.VoteP
	cert  *wire.UCert
	bd    *store.BallotData
	part  uint8
	row   int
	share shamir.Share
	root  [32]byte
}

// onVotePBatch validates a batch of disclosed shares (UCERT first, per
// §III-E) and joins the disclosure round; reconstruction fires at Nv-fv
// shares. Each share is folded up its audit path at the (part, row) this
// node located from the vote code and at the sender's node index, and the
// result must be the ballot root the EA signed. The batch path amortizes the
// two expensive steps: certificates the ballot state already accepted are
// not re-verified (every VOTE_P for a ballot carries the same UCERT), and
// neither is a root the state already holds. A root is held only after its
// signature verified, so "held ⇒ verified" (as for verifyCerts): once one
// share of a ballot has checked, every later share of it costs hashing
// alone. The other shares' root signatures go through one sig.VerifyMany
// pass, which checks the identical ones of a burst once, and each serial's
// shares are applied under a single state-lock acquisition.
func (n *Node) onVotePBatch(batch []job) {
	if !n.withinHours() {
		return
	}
	cands := make([]votePCandidate, 0, len(batch))
	items := make([]sig.Item, 0, len(batch))
	checked := make([]int, 0, len(batch)) // the candidate each item checks
	// The canonical burst is all Nv-1 peers disclosing for one ballot in a
	// single batch, every message carrying the identical UCERT: verify one
	// certificate per (serial, code) per batch and let every later
	// candidate reference what verifyCerts returned for it — a candidate's
	// own cert bytes, which may pad Nv-fv valid signatures with garbage, are
	// never stored or re-disclosed.
	certSeen := make(map[collectorKey]*wire.UCert, len(batch))
	for _, j := range batch {
		m := j.msg.(*wire.VoteP)
		if m.ShareIndex != uint32(j.from)+1 {
			continue // nodes may only disclose their own share
		}
		if m.Cert.Serial != m.Serial || !bytes.Equal(m.Cert.Code, m.Code) {
			n.metrics.BadMessages.Add(1)
			continue
		}
		// locate() validates (serial, code) against the ballot store before
		// anything touches n.state: garbage serials must not allocate
		// persistent ballot state.
		bd, part, row, err := n.locate(m.Serial, m.Code)
		if err != nil {
			continue
		}
		// Peek, never allocate: state is only created in applyShares, after
		// the cert and root signature both verified, preserving the old
		// path's validate-then-allocate order.
		var certKnown bool
		var held *[32]byte
		if st := n.peekState(m.Serial); st != nil {
			st.mu.Lock()
			certKnown = st.cert != nil && bytes.Equal(st.usedCode, m.Code)
			held = st.root
			st.mu.Unlock()
		}
		certKey := collectorKey{serial: m.Serial, code: string(m.Code)}
		var cert *wire.UCert
		if !certKnown {
			if cert = certSeen[certKey]; cert == nil {
				if cert = n.verifyCerts([]*wire.UCert{&m.Cert})[0]; cert == nil {
					n.metrics.BadMessages.Add(1)
					continue
				}
				certSeen[certKey] = cert
			}
		}
		shareVal, err := group.DecodeScalar(m.ShareValue)
		if err != nil {
			n.metrics.BadMessages.Add(1)
			continue
		}
		root, ok := ea.FoldSharePath(bd, part, row, int(j.from), n.nv, [32]byte(m.ShareValue), m.SharePath)
		if !ok || (held != nil && root != *held) {
			n.metrics.BadShares.Add(1)
			continue
		}
		sh := shamir.Share{Index: m.ShareIndex, Value: shareVal}
		cands = append(cands, votePCandidate{from: j.from, m: m, cert: cert, bd: bd, part: part, row: row, share: sh, root: root})
		if held != nil {
			n.metrics.RootSigMemoHits.Add(1)
			continue
		}
		checked = append(checked, len(cands)-1)
		items = append(items, ea.ReceiptShareItem(n.eaPub, m.ShareSig, n.manifest.ElectionID, m.Serial, root))
	}
	if len(cands) == 0 {
		return
	}
	n.metrics.RootSigVerifies.Add(int64(len(items)))
	bad := make([]bool, len(cands))
	for k, ok := range sig.VerifyMany(ea.ReceiptShareDomain, items) {
		bad[checked[k]] = !ok
	}

	// Group surviving shares by serial and apply each group in one state
	// visit; candidate order is preserved within a group.
	bySerial := make(map[uint64][]int, len(cands))
	var order []uint64
	for i := range cands {
		if bad[i] {
			n.metrics.BadShares.Add(1)
			continue
		}
		serial := cands[i].m.Serial
		if _, seen := bySerial[serial]; !seen {
			order = append(order, serial)
		}
		bySerial[serial] = append(bySerial[serial], i)
	}
	for _, serial := range order {
		n.applyShares(serial, cands, bySerial[serial])
	}
}

// applyShares records a serial's batch of validated shares under one lock
// acquisition, disclosing our own share on first contact and reconstructing
// the receipt once Nv-fv shares are in. Transitions are journaled after the
// lock is released and before the acks (waiter notification, our VOTE_P):
// nothing leaves this node that a restart would forget.
func (n *Node) applyShares(serial uint64, cands []votePCandidate, idxs []int) {
	st := n.state(serial)
	var disclose, bound bool
	var ownSh shamir.Share
	var ownLine *votePCandidate // the candidate whose (bd, part, row) we disclose for
	var discloseCode []byte
	var discloseCert *wire.UCert
	var recs [][]byte

	st.mu.Lock()
	if st.root == nil {
		root := cands[idxs[0]].root // every candidate here folded to a verified root
		st.root = &root
	}
	for _, i := range idxs {
		c := &cands[i]
		switch st.status {
		case NotVoted:
			if c.cert == nil {
				// certKnown candidates have no cert of their own; the
				// state they relied on implies status >= Pending, so this
				// branch is unreachable for them — drop defensively rather
				// than certify without a verified cert.
				continue
			}
			st.status = Pending
			st.usedCode = append([]byte(nil), c.m.Code...)
			st.part, st.row = c.part, c.row
			st.cert = c.cert
			st.shares = map[uint32]*big.Int{c.share.Index: c.share.Value}
			bound = true
			recs = append(recs,
				record{kind: recPending, serial: serial, code: c.m.Code, part: c.part, row: c.row, cert: c.cert}.bytes(),
				record{kind: recShare, serial: serial, share: c.share}.bytes())
		case Pending, Voted:
			if !bytes.Equal(st.usedCode, c.m.Code) {
				// Impossible with honest-majority UCERTs; drop defensively.
				n.metrics.BadMessages.Add(1)
				continue
			}
			if st.shares == nil {
				st.shares = make(map[uint32]*big.Int, n.hv)
			}
			if _, dup := st.shares[c.share.Index]; !dup {
				recs = append(recs, record{kind: recShare, serial: serial, share: c.share}.bytes())
			}
			st.shares[c.share.Index] = c.share.Value
		}
		if !st.sentVoteP {
			st.sentVoteP = true
			own, err := n.ownShare(c.bd, c.part, c.row)
			if err == nil {
				st.shares[own.Index] = own.Value
				recs = append(recs, record{kind: recShare, serial: serial, share: own}.bytes())
				disclose = true
				ownSh, ownLine = own, c
				discloseCode = st.usedCode
				discloseCert = st.cert
			}
		}
	}
	// Strict: a ballot whose binding records were lost to an earlier failed
	// append (bound here via a peer's VOTE_P, or adopted during consensus)
	// re-journals its certificate before anything else leaves for it — a
	// restart must never find disclosed shares without the binding behind
	// them. A ucert record rather than a pending one: an adopted cert has no
	// known (part, row), and replay recovers both from the next VOTE_P anyway.
	if n.strictJournal() && !bound && !st.bindingDurable && st.cert != nil {
		recs = append([][]byte{record{kind: recUCert, serial: serial, cert: st.cert}.bytes()}, recs...)
		bound = true
	}
	rec, notify, receipt := n.maybeReconstructLocked(serial, st)
	if rec != nil {
		recs = append(recs, rec)
	}
	st.mu.Unlock()

	err := n.journalAppend(recs...)
	if err != nil && n.strictJournal() {
		n.metrics.StrictRefusals.Add(1)
		// Strict: nothing leaves this node on a lost record — waiters get
		// the failure instead of a receipt, and our share stays undisclosed.
		// The receipt itself survives in memory; a later resubmission
		// re-attempts the append (the Voted fast path) once the journal
		// heals, and resetting sentVoteP lets the next incoming VOTE_P
		// re-trigger the disclosure (which re-journals the share first), so
		// a transient journal outage never suppresses this node's share
		// permanently.
		if disclose {
			st.mu.Lock()
			st.sentVoteP = false
			st.mu.Unlock()
		}
		err = fmt.Errorf("vc: receipt not durable: %w", err)
		for _, ch := range notify {
			ch <- voteOutcome{err: err}
		}
		return
	}
	if err == nil && (rec != nil || bound) {
		st.mu.Lock()
		if rec != nil {
			st.receiptDurable = true
		}
		if bound {
			st.bindingDurable = true
		}
		st.mu.Unlock()
	}
	for _, ch := range notify {
		ch <- voteOutcome{receipt: receipt}
	}
	if disclose {
		n.multicastVoteP(serial, discloseCode, ownSh, ownLine.bd, ownLine.part, ownLine.row, discloseCert)
	}
}

// maybeReconstructLocked reconstructs the receipt once Nv-fv shares are in.
// Caller holds st.mu. Waiter notification is handed back to the caller (to
// run after the voted record is journaled, outside the lock): the receipt
// is an irrevocable promise to the voter, so it must be durable before it
// is released.
func (n *Node) maybeReconstructLocked(serial uint64, st *ballotState) (rec []byte, notify []chan voteOutcome, receipt []byte) {
	if st.status == Voted || len(st.shares) < n.hv {
		return nil, nil, nil
	}
	shares := make([]shamir.Share, 0, n.hv)
	for idx, v := range st.shares {
		shares = append(shares, shamir.Share{Index: idx, Value: v})
		if len(shares) == n.hv {
			break
		}
	}
	secret, err := shamir.Combine(shares, n.hv)
	if err != nil {
		return nil, nil, nil
	}
	receipt, err = shamir.ScalarToSecret(secret)
	if err != nil || len(receipt) != votecode.ReceiptSize {
		// Cannot happen when every share folded to an EA-signed root.
		n.metrics.BadShares.Add(1)
		return nil, nil, nil
	}
	st.status = Voted
	st.receipt = receipt
	notify = st.waiters
	st.waiters = nil
	return record{kind: recVoted, serial: serial, code: st.usedCode, receipt: receipt}.bytes(), notify, receipt
}

// BallotStatus reports a ballot's current state (tests and recovery).
func (n *Node) BallotStatus(serial uint64) (Status, []byte) {
	st := n.state(serial)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.status, st.usedCode
}

// CertAgreement checks the at-most-one-UCERT safety invariant across a set
// of nodes: any two that have bound a ballot in [1, numBallots] to a code
// agree on the code. Fault-injection harnesses probe this continuously
// while a fault schedule runs (DESIGN.md, "Scenarios, probes").
func CertAgreement(nodes []*Node, numBallots int) error {
	for b := 1; b <= numBallots; b++ {
		serial := uint64(b)
		var seen []byte
		for i, n := range nodes {
			_, code := n.BallotStatus(serial)
			if code == nil {
				continue
			}
			if seen == nil {
				seen = code
			} else if !bytes.Equal(seen, code) {
				return fmt.Errorf("vc: ballot %d: node %d certified a conflicting code", serial, i)
			}
		}
	}
	return nil
}

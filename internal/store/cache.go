package store

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// Cached wraps any Store with a byte-bounded, admission-controlled LRU
// cache — the paper's "database eliminated" in-memory configuration scaled
// down to a fixed budget, so a node serving a pool that outgrows RAM still
// absorbs the protocol's per-ballot fan-in (the responder's validation,
// ENDORSE and VOTE_P handlers all Get the same serial within milliseconds)
// with one underlying read.
//
// Four properties shape the design:
//
//   - Single-flight loading: N concurrent Gets for one absent serial share
//     one inner read; the rest wait on it. Under the vote-time fan-in this
//     converts a thundering herd into one positional read.
//   - Byte-sized eviction: the bound is MaxBytes of cached ballot data, not
//     an entry count, because entry size varies with the option count m —
//     an entry-counted cache would use 8x the memory at m=16 as at m=2.
//     Entries above MaxBytes/8 are never admitted (one oversized record
//     cannot wipe the working set).
//   - Admission control (segmented LRU): a freshly loaded ballot enters a
//     probationary region capped at ~20% of the budget; only a second touch
//     promotes it into the protected region holding the rest. A one-shot
//     scan — an auditor streaming the pool — churns through probation and
//     never displaces the vote-time working set, while the protocol's
//     touch-again-within-milliseconds pattern promotes on its second access
//     and hits from then on.
//   - Sharding: the cache is split into serial-hashed shards, each with its
//     own lock, LRU lists and slice of the byte budget, so the hit path
//     does not serialize the node's worker pool behind one mutex at
//     millions of Gets per second.
//
// The returned *BallotData is shared between the cache and all callers and
// must be treated as immutable, matching Mem's sharing semantics.
type Cached struct {
	inner  Store
	max    int64 // total budget (sum of shard budgets)
	shards []cacheShard
	mask   uint64
	closed atomic.Bool

	hits       atomic.Int64
	misses     atomic.Int64
	shared     atomic.Int64
	evictions  atomic.Int64
	rejected   atomic.Int64
	promotions atomic.Int64
}

const (
	regionProbation = iota
	regionProtected
)

// cacheShard is one lock's worth of the cache: a probationary and a
// protected LRU list sharing one serial index.
type cacheShard struct {
	mu      sync.Mutex
	probMax int64 // probation byte budget (~20% of the shard)
	protMax int64 // protected byte budget (the rest)
	sizeCap int64 // entries above this are never admitted (global MaxBytes/8)
	prob    *list.List
	prot    *list.List
	entries map[uint64]*list.Element
	probBy  int64
	protBy  int64
	flights map[uint64]*flight
	_       [24]byte // keep neighbouring shards off one cache line
}

var _ Store = (*Cached)(nil)

// CachedOptions configures NewCached.
type CachedOptions struct {
	// MaxBytes bounds the cached ballot data across all shards (required,
	// > 0).
	MaxBytes int64
}

// cacheShards is the number of independently locked cache shards.
const cacheShards = 16

type centry struct {
	serial uint64
	bd     *BallotData
	cost   int64
	region int
}

type flight struct {
	done    chan struct{}
	bd      *BallotData
	err     error
	waiters int // Gets that joined after the flight took off
}

// NewCached wraps inner. Closing the Cached closes inner.
func NewCached(inner Store, opts CachedOptions) (*Cached, error) {
	return newCached(inner, opts.MaxBytes, cacheShards)
}

// newCached builds a cache of n shards, a power of two; tests that need
// exact LRU order and byte accounting use one.
func newCached(inner Store, maxBytes int64, n int) (*Cached, error) {
	if maxBytes <= 0 {
		return nil, fmt.Errorf("store: cache needs a positive byte bound")
	}
	c := &Cached{
		inner:  inner,
		max:    maxBytes,
		shards: make([]cacheShard, n),
		mask:   uint64(n - 1), //nolint:gosec // n >= 1
	}
	for i := range c.shards {
		s := &c.shards[i]
		budget := maxBytes / int64(n)
		if budget < 1 {
			budget = 1
		}
		s.probMax = budget / 5
		s.protMax = budget - s.probMax
		// Size admission: bounded by 1/8 of the whole budget, and by half
		// the shard budget so one entry can never own a shard outright.
		s.sizeCap = maxBytes / 8
		if half := budget / 2; s.sizeCap > half {
			s.sizeCap = half
		}
		s.prob = list.New()
		s.prot = list.New()
		s.entries = make(map[uint64]*list.Element)
		s.flights = make(map[uint64]*flight)
	}
	return c, nil
}

// shardFor mixes the serial (dense serials would otherwise stride) and
// picks the owning shard.
func (c *Cached) shardFor(serial uint64) *cacheShard {
	h := serial * 0x9E3779B97F4A7C15 // Fibonacci hashing
	return &c.shards[(h>>32)&c.mask]
}

// ballotCost estimates an entry's resident size: the ballot's payload, as
// many bytes as its disk record, plus fixed per-entry overhead (struct,
// slice headers, map and list bookkeeping).
func ballotCost(bd *BallotData) int64 {
	const overhead = 160
	return overhead + int64(recordSize(len(bd.Lines[0])+len(bd.Lines[1]), len(bd.NodePath)/hashSize))
}

// Get implements Store.
func (c *Cached) Get(serial uint64) (*BallotData, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("store: read serial %d: store closed", serial)
	}
	s := c.shardFor(serial)
	s.mu.Lock()
	if el, ok := s.entries[serial]; ok {
		e := el.Value.(*centry)
		if e.region == regionProtected {
			s.prot.MoveToFront(el)
		} else {
			// Second touch: the reuse the admission policy was waiting
			// for. Promote out of probation into the protected region.
			c.promote(s, el, e)
		}
		bd := e.bd
		s.mu.Unlock()
		c.hits.Add(1)
		return bd, nil
	}
	if f, ok := s.flights[serial]; ok {
		// Someone is already reading this serial: wait for their result
		// instead of issuing a second positional read.
		f.waiters++
		s.mu.Unlock()
		<-f.done
		c.misses.Add(1)
		c.shared.Add(1)
		return f.bd, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.flights[serial] = f
	s.mu.Unlock()

	bd, err := c.inner.Get(serial)
	f.bd, f.err = bd, err

	s.mu.Lock()
	delete(s.flights, serial)
	if err == nil && !c.closed.Load() {
		c.admit(s, serial, bd, f.waiters > 0)
	}
	s.mu.Unlock()
	close(f.done)
	c.misses.Add(1)
	return bd, err
}

// promote moves a probationary entry to the protected region, demoting the
// protected tail back to probation when the region overflows (classic
// segmented-LRU). Called with the shard lock held.
func (c *Cached) promote(s *cacheShard, el *list.Element, e *centry) {
	s.prob.Remove(el)
	s.probBy -= e.cost
	e.region = regionProtected
	s.entries[e.serial] = s.prot.PushFront(e)
	s.protBy += e.cost
	c.promotions.Add(1)
	c.trimProtected(s, e)
	c.evictProbation(s, e)
}

// trimProtected shrinks the protected list to its budget, demoting tails
// back to probation (classic segmented-LRU). Never touches keep. Called
// with the shard lock held.
func (c *Cached) trimProtected(s *cacheShard, keep *centry) {
	for s.protBy > s.protMax {
		back := s.prot.Back()
		if back == nil || back.Value.(*centry) == keep {
			break
		}
		d := back.Value.(*centry)
		s.prot.Remove(back)
		s.protBy -= d.cost
		d.region = regionProbation
		s.entries[d.serial] = s.prob.PushFront(d)
		s.probBy += d.cost
	}
}

// evictProbation trims the probation list to its budget, never touching
// keep. Called with the shard lock held.
func (c *Cached) evictProbation(s *cacheShard, keep *centry) {
	for s.probBy > s.probMax {
		back := s.prob.Back()
		if back == nil || back.Value.(*centry) == keep {
			break
		}
		e := back.Value.(*centry)
		s.prob.Remove(back)
		delete(s.entries, e.serial)
		s.probBy -= e.cost
		c.evictions.Add(1)
	}
}

// admit places a freshly loaded ballot. Called with the shard lock held.
func (c *Cached) admit(s *cacheShard, serial uint64, bd *BallotData, sharedFlight bool) {
	cost := ballotCost(bd)
	if cost > s.sizeCap {
		// Size admission: a record bigger than 1/8 of the whole budget
		// would evict most of a working set for one entry's benefit.
		c.rejected.Add(1)
		return
	}
	e := &centry{serial: serial, bd: bd, cost: cost}
	if sharedFlight {
		// Concurrent Gets already proved reuse: straight into the
		// protected region.
		e.region = regionProtected
		s.entries[serial] = s.prot.PushFront(e)
		s.protBy += cost
		c.trimProtected(s, e)
		c.evictProbation(s, e)
		return
	}
	e.region = regionProbation
	s.entries[serial] = s.prob.PushFront(e)
	s.probBy += cost
	c.evictProbation(s, e)
}

// Count implements Store.
func (c *Cached) Count() int { return c.inner.Count() }

// Close implements Store: drops the cache and closes the inner store. An
// in-flight inner read may complete concurrently; its waiters get its
// result, nothing is admitted afterwards (racing Gets on the inner store
// resolve to the inner store's own clean closed error).
func (c *Cached) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.prob.Init()
		s.prot.Init()
		s.entries = make(map[uint64]*list.Element)
		s.probBy, s.protBy = 0, 0
		s.mu.Unlock()
	}
	return c.inner.Close()
}

// CacheStats is a point-in-time copy of the cache counters.
type CacheStats struct {
	Hits       int64 // Gets served from the cache
	Misses     int64 // Gets that needed (or waited on) an inner read
	Shared     int64 // misses that joined another Get's in-flight read
	Evictions  int64 // entries displaced by the byte bound
	Rejected   int64 // loads size-admission declined to cache
	Promotions int64 // probation entries promoted by a second touch
	Bytes      int64 // current resident ballot bytes
	Entries    int64 // current resident entries
}

// HitRate is Hits / (Hits + Misses), 0 when idle.
func (s CacheStats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// Stats snapshots the cache counters.
func (c *Cached) Stats() CacheStats {
	st := CacheStats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Shared:     c.shared.Load(),
		Evictions:  c.evictions.Load(),
		Rejected:   c.rejected.Load(),
		Promotions: c.promotions.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Bytes += s.probBy + s.protBy
		st.Entries += int64(len(s.entries))
		s.mu.Unlock()
	}
	return st
}

package store

import (
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingStore wraps a Store, counting inner Gets and optionally stalling
// them on a gate so a test can pile up racing callers.
type countingStore struct {
	Store
	gets atomic.Int64
	gate chan struct{} // when non-nil, Gets block until it closes
}

func (c *countingStore) Get(serial uint64) (*BallotData, error) {
	c.gets.Add(1)
	if c.gate != nil {
		<-c.gate
	}
	return c.Store.Get(serial)
}

func newCacheOver(t *testing.T, inner Store, maxBytes int64) *Cached {
	t.Helper()
	c, err := NewCached(inner, CachedOptions{MaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newSingleShardCache builds a one-shard cache, so LRU order and byte
// accounting are exact rather than spread across shard budgets.
func newSingleShardCache(t *testing.T, inner Store, maxBytes int64) *Cached {
	t.Helper()
	c, err := newCached(inner, maxBytes, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCacheChargesTheRecord: a cached ballot costs its on-disk record —
// lines, signature and node path — plus a fixed overhead, so the byte budget follows
// the record layout.
func TestCacheChargesTheRecord(t *testing.T) {
	const n, m = 3, 4
	ballots := fabricateBallots(1, n, m)
	d, path, err := createDisk(t.TempDir(), ballots)
	if err != nil {
		t.Fatal(err)
	}
	_ = d.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	record := (fi.Size() - headerSize) / n
	if got := ballotCost(ballots[0]) - record; got != 160 {
		t.Fatalf("a %d-byte record costs %d bytes in the cache, want the record plus 160", record, ballotCost(ballots[0]))
	}
}

// TestCacheSingleFlight: N racing Gets for one absent serial cost exactly
// one inner read, and every caller gets the same data.
func TestCacheSingleFlight(t *testing.T) {
	ballots := fabricateBallots(1, 10, 2)
	inner := &countingStore{Store: NewMem(ballots), gate: make(chan struct{})}
	c := newCacheOver(t, inner, 1<<20)

	const racers = 32
	var wg sync.WaitGroup
	results := make([]*BallotData, racers)
	errs := make([]error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Get(5)
		}(i)
	}
	// Open the gate once every racer is inside Get — one holding the flight
	// open on the gate, the rest waiting on it — or, if single-flight is
	// broken and they never all join, after a deadline for the checks below
	// to report.
	s := c.shardFor(5)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		s.mu.Lock()
		f := s.flights[5]
		joined := f != nil && f.waiters == racers-1
		s.mu.Unlock()
		if joined {
			break
		}
	}
	close(inner.gate)
	wg.Wait()
	for i := 0; i < racers; i++ {
		if errs[i] != nil {
			t.Fatalf("racer %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("racer %d got a different ballot object", i)
		}
	}
	if got := inner.gets.Load(); got != 1 {
		t.Fatalf("%d inner reads for %d racing Gets, want 1", got, racers)
	}
	st := c.Stats()
	if st.Hits+st.Misses != racers {
		t.Fatalf("stats cover %d Gets, want %d", st.Hits+st.Misses, racers)
	}
	if st.Shared == 0 {
		t.Fatal("no shared flights recorded for racing Gets")
	}
}

// TestCacheEvictionByteBound: the cache never holds more than MaxBytes and
// evicts in LRU order. Every serial is touched twice, so each is promoted
// and the protected region's overflow demotes through probation: the 10
// most recent serials stay resident (8 protected, 2 in probation).
func TestCacheEvictionByteBound(t *testing.T) {
	const m = 2
	ballots := fabricateBallots(1, 100, m)
	cost := ballotCost(ballots[0])
	maxBytes := cost * 10 // room for exactly 10 entries
	inner := &countingStore{Store: NewMem(ballots)}
	c := newSingleShardCache(t, inner, maxBytes)

	for s := uint64(1); s <= 30; s++ {
		for touch := 0; touch < 2; touch++ {
			if _, err := c.Get(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := c.Stats()
	if st.Bytes > maxBytes {
		t.Fatalf("resident %d bytes exceeds bound %d", st.Bytes, maxBytes)
	}
	if st.Entries != 10 {
		t.Fatalf("resident %d entries, want 10", st.Entries)
	}
	if st.Evictions != 20 {
		t.Fatalf("%d evictions, want 20", st.Evictions)
	}
	// LRU order: the last 10 serials are resident (hits), older ones are not.
	before := c.Stats().Hits
	for s := uint64(21); s <= 30; s++ {
		if _, err := c.Get(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().Hits - before; got != 10 {
		t.Fatalf("%d hits on the 10 most recent serials, want 10", got)
	}
	reads := inner.gets.Load()
	if _, err := c.Get(1); err != nil { // long evicted
		t.Fatal(err)
	}
	if inner.gets.Load() != reads+1 {
		t.Fatal("evicted serial did not trigger an inner read")
	}
}

// TestCacheAdmissionResistsScan: with the working set promoted into the
// protected region, a one-shot scan of the rest of the pool churns only
// probation and does not evict it.
func TestCacheAdmissionResistsScan(t *testing.T) {
	ballots := fabricateBallots(1, 1000, 2)
	cost := ballotCost(ballots[0])
	inner := &countingStore{Store: NewMem(ballots)}
	// Budget for 25 entries: probation holds 5, protected 20.
	c := newSingleShardCache(t, inner, cost*25)

	// Build a hot working set: serials 1..20, touched twice in quick
	// succession — the second touch promotes each out of probation.
	for s := uint64(1); s <= 20; s++ {
		for touch := 0; touch < 2; touch++ {
			if _, err := c.Get(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := c.Stats().Promotions; got != 20 {
		t.Fatalf("promotions = %d, want 20", got)
	}
	// One-shot scan over 500 cold serials: first touches only, confined to
	// the probationary region.
	for s := uint64(100); s < 600; s++ {
		if _, err := c.Get(s); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats().Hits
	for s := uint64(1); s <= 20; s++ {
		if _, err := c.Get(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().Hits - before; got != 20 {
		t.Fatalf("working set survived with %d/20 hits after scan; admission failed", got)
	}
	if ev := c.Stats().Evictions; ev < 490 {
		t.Fatalf("scan evicted %d probation entries, want ~495 (scan must stay in probation)", ev)
	}
}

// TestCacheOversizedEntryNeverAdmitted: size admission — an entry costing
// more than MaxBytes/8 is served but not cached.
func TestCacheOversizedEntryNeverAdmitted(t *testing.T) {
	big := fabricateBallots(1, 3, 64) // 64 options: cost ~ 9KiB
	inner := &countingStore{Store: NewMem(big)}
	c := newSingleShardCache(t, inner, 32*1024)
	for i := 0; i < 3; i++ {
		if _, err := c.Get(1); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("oversized entry cached (entries=%d hits=%d)", st.Entries, st.Hits)
	}
	if st.Rejected != 3 {
		t.Fatalf("rejected=%d, want 3", st.Rejected)
	}
}

// TestCacheGetRacingClose: Gets racing Close return either good data or a
// clean "store closed" error — never a panic or torn read. Runs over a real
// segmented store so the inner Close path (file handles) is exercised too.
func TestCacheGetRacingClose(t *testing.T) {
	ballots := fabricateBallots(1, 2000, 2)
	dir := t.TempDir()
	seg, err := CreateSegmented(dir, ballots, WriterOptions{SegmentBallots: 500})
	if err != nil {
		t.Fatal(err)
	}
	c := newCacheOver(t, seg, 1<<20)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for s := uint64(1); s <= 2000; s++ {
				bd, err := c.Get(s)
				if err != nil {
					if strings.Contains(err.Error(), "store closed") ||
						strings.Contains(err.Error(), "file already closed") {
						return // clean shutdown error: expected
					}
					t.Errorf("goroutine %d serial %d: %v", g, s, err)
					return
				}
				if bd.Serial != s {
					t.Errorf("goroutine %d: serial %d returned %d", g, s, bd.Serial)
					return
				}
			}
		}(g)
	}
	close(start)
	_ = c.Close() // races the readers by design
	wg.Wait()
	// Close is idempotent.
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := c.Get(1); err == nil {
		t.Fatal("Get after Close must fail")
	}
}

// TestCachedOverSegmentedEndToEnd: the composition the benchmark and the
// -store-cache flag run — cache over segments — returns correct data for a
// pool far larger than the cache.
func TestCachedOverSegmentedEndToEnd(t *testing.T) {
	ballots := fabricateBallots(1, 20_000, 2)
	seg, err := CreateSegmented(t.TempDir(), ballots, WriterOptions{SegmentBallots: 4096})
	if err != nil {
		t.Fatal(err)
	}
	cost := ballotCost(ballots[0])
	c := newCacheOver(t, seg, cost*512) // ~2.5% of the pool
	defer func() { _ = c.Close() }()

	// Protocol-shaped access: every serial touched three times in a narrow
	// window (responder validate, ENDORSE, VOTE_P), streaming over a pool
	// 40x the cache.
	for s := uint64(1); s <= 20_000; s++ {
		for touch := 0; touch < 3; touch++ {
			checkBallot(t, c, ballots[s-1])
		}
	}
	st := c.Stats()
	if st.Bytes > cost*512 {
		t.Fatalf("resident %d bytes exceeds bound", st.Bytes)
	}
	// 3 touches per serial: the first misses into probation, the second
	// promotes (hit), the third hits protected — ~2/3 minus edge effects.
	if st.HitRate() < 0.50 {
		t.Fatalf("hit rate %.2f too low for 3-touch locality", st.HitRate())
	}
}

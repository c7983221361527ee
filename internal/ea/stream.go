package ea

import (
	"fmt"
	"runtime"
	"sync"

	"ddemos/internal/ballot"
	"ddemos/internal/store"
)

// Emission is everything the EA derives from one ballot: the voter-facing
// ballot sheet, the per-VC store records, and (unless Params.VCOnly) the BB
// row payload and per-trustee opening shares. Emissions are produced in
// strict serial order, so a sink can stream each one to disk and drop it —
// the whole pool never has to exist in memory at once.
type Emission struct {
	Serial   uint64
	Voter    *ballot.Ballot
	VC       []*store.BallotData // one per VC node, indexed by VC index
	BB       *BBBallot           // nil when Params.VCOnly
	Trustees []TrusteeBallot     // one per trustee; empty when Params.VCOnly
}

// StreamData is the O(components) part of a setup: the manifest and the
// per-component initialization payloads with their Ballots slices left nil.
// The per-ballot data flows through the SetupStream sink instead.
type StreamData struct {
	Manifest Manifest
	VC       []*VCInit
	BB       *BBInit        // nil when Params.VCOnly
	Trustees []*TrusteeInit // nil when Params.VCOnly
}

// StreamOptions hooks into the SetupStream pipeline. The zero value is
// ready to use.
type StreamOptions struct {
	// OnComponents, when set, is called with the completed StreamData
	// after key/component generation and before the first ballot is
	// emitted — the hook a streaming sink uses to write slim init headers
	// ahead of the per-ballot values. An error aborts the setup.
	OnComponents func(*StreamData) error
}

// streamWindow bounds how many ballots may be in flight (generated but not
// yet emitted) at once — the reorder buffer between the parallel workers,
// one per CPU, and the strictly-ordered sink: large enough to keep every
// core busy even when per-ballot generation times vary, small next to any
// segment size. Peak memory of a streaming setup is O(streamWindow +
// segment), independent of NumBallots.
const streamWindow = 256

// SetupStream runs EA setup with O(window) memory: components and keys are
// generated first (returned as StreamData), then ballots are generated in
// parallel and the sink is called exactly once per ballot in strict serial
// order (1..NumBallots). If the sink returns an error the stream stops and
// SetupStream returns that error.
//
// With Params.Seed set the emitted data is byte-identical to Setup's for
// the same Params, regardless of scheduling: each ballot derives its
// own DRBG from (seed, serial) and the master randomness is consumed before
// any ballot work starts.
func SetupStream(p Params, opts StreamOptions, sink func(*Emission) error) (*StreamData, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if sink == nil {
		return nil, fmt.Errorf("ea: SetupStream requires a sink")
	}
	sd, gen, err := setupComponents(&p)
	if err != nil {
		return nil, err
	}
	if opts.OnComponents != nil {
		if err := opts.OnComponents(sd); err != nil {
			return nil, err
		}
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > p.NumBallots {
		workers = p.NumBallots
	}
	window := streamWindow
	if window < workers {
		window = workers
	}
	if window > p.NumBallots {
		window = p.NumBallots
	}
	if p.NumBallots == 0 {
		return sd, nil
	}

	// Ordered-futures pipeline: the dispatcher assigns each serial a slot
	// (a one-shot result channel) and pushes the slot onto `slots` in
	// serial order while workers race on `work`; the sequencer drains
	// `slots` in order, so emissions reach the sink strictly ordered while
	// at most `window` ballots are in flight. `done` tears everything down
	// on the first error.
	type slot struct {
		serial uint64
		res    chan *Emission
	}
	var (
		slots    = make(chan slot, window)
		work     = make(chan slot)
		done     = make(chan struct{})
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			close(done)
		})
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // dispatcher
		defer wg.Done()
		defer close(slots)
		defer close(work)
		for s := uint64(1); s <= uint64(p.NumBallots); s++ {
			sl := slot{serial: s, res: make(chan *Emission, 1)}
			select {
			case slots <- sl:
			case <-done:
				return
			}
			select {
			case work <- sl:
			case <-done:
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() { // worker
			defer wg.Done()
			for sl := range work {
				e, err := gen.one(sl.serial)
				if err != nil {
					fail(err)
					return
				}
				select {
				case sl.res <- e:
				case <-done:
					return
				}
			}
		}()
	}

	// Sequencer: runs on the caller's goroutine so sink needs no locking.
	for sl := range slots {
		select {
		case <-done: // tearing down — just drain the remaining slots
			continue
		default:
		}
		select {
		case e := <-sl.res:
			if err := sink(e); err != nil {
				fail(err)
			}
		case <-done:
		}
	}
	wg.Wait()
	return sd, firstErr
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one vote share ID = its
// serial number; spans of one phase share the phase's name. Parent names the
// span (of the same ID) that caused this one; a root has none.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the plain run pays one nil check per boundary. on gates the
// per-vote spans only (off outside the timed window): the traced run
// switches it on and off in blocks to measure what recording costs
// (trace.overhead_frac).
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// voteSpans reports whether per-vote spans are being recorded right now.
func (t *tracer) voteSpans() bool { return t != nil && t.on.Load() }

// add records a finished span.
func (t *tracer) add(name, id, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, ID: id, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// phase times fn as a span of the phase named id.
func (t *tracer) phase(name, id, parent string, fn func() error) error {
	start := time.Now()
	err := fn()
	t.add(name, id, parent, start, time.Now())
	return err
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.all())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// interval is a half-open [from, to) stretch of trace time.
type interval struct{ from, to int64 }

// union merges overlapping intervals and returns them sorted and disjoint.
func union(in []interval) []interval {
	in = append([]interval(nil), in...)
	sort.Slice(in, func(i, j int) bool { return in[i].from < in[j].from })
	var out []interval
	for _, iv := range in {
		if iv.to <= iv.from {
			continue
		}
		if n := len(out); n > 0 && iv.from <= out[n-1].to {
			if iv.to > out[n-1].to {
				out[n-1].to = iv.to
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// subtract removes the (disjoint, sorted) cover from iv.
func subtract(iv interval, cover []interval) []interval {
	var out []interval
	at := iv.from
	for _, c := range cover {
		if c.to <= at || c.from >= iv.to {
			continue
		}
		if c.from > at {
			out = append(out, interval{at, c.from})
		}
		at = c.to
	}
	if at < iv.to {
		out = append(out, interval{at, iv.to})
	}
	return out
}

func measure(ivs []interval) int64 {
	var sum int64
	for _, iv := range ivs {
		sum += iv.to - iv.from
	}
	return sum
}

// selfRow is one row of the self-time table: all spans of one name.
type selfRow struct {
	Name  string
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // time on the blocking path not covered by children
}

// selfTimes computes, for every span name, the time its spans were running
// while none of their children was. A span's self time is its interval minus
// the union of its children's; spans of one name within one ID are then
// united, so parallel siblings (four nodes running consensus at once) count
// for the slowest of them, not four times. Summed over names, the rows of
// one ID give the wall time its root span covered — the blocking path.
func selfTimes(spans []span) []selfRow {
	type key struct{ id, name string }
	byKey := make(map[key][]span)
	for _, s := range spans {
		byKey[key{s.ID, s.Name}] = append(byKey[key{s.ID, s.Name}], s)
	}
	children := make(map[key][]interval) // by (id, parent name)
	for _, s := range spans {
		if s.Parent != "" {
			k := key{s.ID, s.Parent}
			children[k] = append(children[k], interval{s.Start, s.End})
		}
	}
	rows := make(map[string]*selfRow)
	for k, group := range byKey {
		cover := union(children[k])
		var self []interval
		row := rows[k.name]
		if row == nil {
			row = &selfRow{Name: k.name}
			rows[k.name] = row
		}
		for _, s := range group {
			self = append(self, subtract(interval{s.Start, s.End}, cover)...)
			row.Count++
			row.Total += time.Duration(s.End - s.Start)
		}
		row.Self += time.Duration(measure(union(self)))
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// spansNamed returns the spans with the given name, in recording order.
func spansNamed(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// seconds of the union of the named spans (parallel ones counted once).
func unionSeconds(spans []span, names ...string) float64 {
	var ivs []interval
	for _, n := range names {
		for _, s := range spansNamed(spans, n) {
			ivs = append(ivs, interval{s.Start, s.End})
		}
	}
	return float64(measure(union(ivs))) / 1e9
}

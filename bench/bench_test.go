package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{20, 50},   // p90 would leave 2 beyond
		{100, 90},  // exactly 10 beyond p90, 5 beyond p95
		{109, 90},  // rank(p90)=99 leaves 10
		{200, 95},  // 10 beyond p95
		{600, 98},  // 12 beyond p98, 6 beyond p99
		{999, 98},  // rank(p99)=990 leaves 9
		{1000, 99}, // exactly 10 beyond p99
		{50000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = p%v, want p%v", tc.n, got, tc.want)
		}
	}
	s := make(samples, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := s.percentile(99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (nearest rank)", got)
	}
}

// A target that stalls on one vote delays the votes scheduled behind it; an
// open loop must charge them that wait even though their own service was
// instant.
func TestPacedLatencyRunsFromScheduledSend(t *testing.T) {
	const stall = 200 * time.Millisecond
	due := schedule([]plateau{{Rate: 100, Count: 10}}) // one every 10 ms
	send := func(_ context.Context, i int) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	}
	res := runPaced(context.Background(), due, 1, send) // one in flight: everything queues behind vote 0
	if res.failed() != 0 {
		t.Fatalf("%d votes failed", res.failed())
	}
	for _, i := range []int{1, 5, 9} {
		wantAtLeast := float64(stall-due[i]) / 1e6 * 0.9
		if res.LatencyMs[i] < wantAtLeast {
			t.Errorf("vote %d: latency %.1f ms hides the stall (want >= %.1f ms from its scheduled send)", i, res.LatencyMs[i], wantAtLeast)
		}
		if res.LagMs[i] < wantAtLeast {
			t.Errorf("vote %d: start lag %.1f ms, want >= %.1f ms", i, res.LagMs[i], wantAtLeast)
		}
	}
	st := summarisePlateau(res, due, 0, len(due), 100)
	if !st.LagDominant {
		t.Error("a tail made of start lag must be flagged as the generator's")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: "x", Start: 0, End: 100},
		{Name: "child", ID: "x", Parent: "parent", Start: 10, End: 40},
		{Name: "child", ID: "x", Parent: "parent", Start: 30, End: 60}, // overlaps the first
		{Name: "grandchild", ID: "x", Parent: "child", Start: 35, End: 45},
		{Name: "child", ID: "y", Parent: "parent", Start: 0, End: 1000}, // another ID: not this parent's
	}
	got := make(map[string]selfRow)
	for _, r := range selfTimes(spans) {
		got[r.Name] = r
	}
	// parent: 100 − |[10,60)| = 50. child (x): |[10,60) − [35,45)| = 40, plus
	// 1000 for ID y. grandchild: 10. Rows of ID x sum to the root's 100.
	if got["parent"].Self != 50 {
		t.Errorf("parent self = %d, want 50", got["parent"].Self)
	}
	if got["child"].Self != 40+1000 {
		t.Errorf("child self = %d, want 1040", got["child"].Self)
	}
	if got["grandchild"].Self != 10 {
		t.Errorf("grandchild self = %d, want 10", got["grandchild"].Self)
	}
	if got["child"].Count != 3 || got["child"].Total != 30+30+1000 {
		t.Errorf("child row = %+v", got["child"])
	}
}

// pacedResult fabricates an open-loop result with the given latencies.
func pacedResult(lat []float64) (*loadResult, []time.Duration) {
	r := &loadResult{LatencyMs: lat, OK: make([]bool, len(lat)), LagMs: make([]float64, len(lat))}
	for i := range r.OK {
		r.OK[i] = true
	}
	return r, schedule([]plateau{{Rate: 100, Count: len(lat)}})
}

func TestMaxRateOKRules(t *testing.T) {
	flat := make([]float64, 300)
	growing := make([]float64, 300)
	slow := make([]float64, 300)
	for i := range flat {
		flat[i] = 10
		growing[i] = 5 + float64(i)/10 // 5 → 35 ms: the last third is > 2× the first
		slow[i] = 10
		if i%10 == 0 {
			slow[i] = 150 // a tenth of the votes over the 100 ms limit
		}
	}
	sustained := func(lat []float64, fail int) bool {
		r, due := pacedResult(lat)
		if fail >= 0 {
			r.OK[fail] = false
		}
		return summarisePlateau(r, due, 0, len(lat), 100).Sustained
	}
	if !sustained(flat, -1) {
		t.Error("a flat 10 ms plateau must count as sustained")
	}
	if sustained(growing, -1) {
		t.Error("a plateau whose last third is served 2x slower than its first has a growing backlog")
	}
	if sustained(slow, -1) {
		t.Error("a plateau with its tail over the latency limit is not sustained")
	}
	if sustained(flat, 7) {
		t.Error("a plateau with a failed vote is not sustained")
	}
	ladder := []plateauStats{{Rate: 150, Sustained: true}, {Rate: 300, Sustained: true}, {Rate: 450}}
	if got := maxRateOK(ladder); got != 300 {
		t.Errorf("maxRateOK = %v, want 300", got)
	}
}

func TestGenVotesIsAFunctionOfTheSeed(t *testing.T) {
	a := genVotes(7, 1000, 900, numOptions, numVC)
	b := genVotes(7, 1000, 900, numOptions, numVC)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two vote lists")
	}
	if reflect.DeepEqual(a, genVotes(8, 1000, 900, numOptions, numVC)) {
		t.Fatal("two seeds gave the same vote list")
	}
	seen := make(map[uint64]bool)
	for _, v := range a {
		if v.Serial < 1 || v.Serial > 1000 || seen[v.Serial] {
			t.Fatalf("serial %d out of range or voting twice", v.Serial)
		}
		seen[v.Serial] = true
		if v.Part > 1 || v.Option < 0 || v.Option >= numOptions || v.Node < 0 || v.Node >= numVC {
			t.Fatalf("vote out of range: %+v", v)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// The declarations in metrics.go and workloads.go are what the program
// emits and what -compare gates on; BENCHMARK.json is what the driver reads.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", bj.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %s: why differs from workloadWhy", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, declared %v", names, workloadNames)
	}
	var e2e, layer []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better, 0})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", layer, perLayer)
	}
}

// All four workloads, plain and traced, at 1/50 scale: every run must pass
// its correctness gate and emit exactly the declared metrics, each with its
// unit, and the end-to-end ones non-zero.
func TestSmokeEveryWorkloadEmitsTheDeclaredMetrics(t *testing.T) {
	out := t.TempDir()
	for _, name := range workloadNames {
		sp, err := newSpec(name, defaultSeconds, 1.0/50)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(context.Background(), sp, 1, traced, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != sp.totalVotes() {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d (want %d); problems: %v",
					name, traced, res.Correct, res.Failed, res.Attempted, sp.totalVotes(), res.Problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var want, got []string
			for _, d := range defs {
				want = append(want, d.Name)
				if mv := res.Metrics[d.Name]; mv.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", name, d.Name, mv.Unit, d.Unit)
				} else if !traced && mv.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, d.Name, mv.Value)
				}
			}
			for n := range res.Metrics {
				got = append(got, n)
			}
			sort.Strings(want)
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v emitted %v, declared %v", name, traced, got, want)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(out, "trace-"+name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", name, err)
				}
				if res.Metrics["trace.spans"].Value == 0 || len(res.SelfTime) == 0 {
					t.Errorf("%s: traced run recorded no spans", name)
				}
			}
		}
	}
	left, _ := filepath.Glob(filepath.Join(out, "run-*"))
	if len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, votesPerS float64, omit string) string {
		var suite suiteResult
		for _, w := range workloadNames {
			m := newMetricSet(endToEnd)
			for _, d := range endToEnd {
				set(m, d.Name, 100)
			}
			set(m, "votes_per_s", votesPerS)
			if w != omit {
				suite.Runs = append(suite.Runs, &runResult{Workload: w, Correct: true, Metrics: m})
			}
		}
		raw, err := json.Marshal(suite)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 100, "")
	for _, tc := range []struct {
		name    string
		cand    string
		wantOK  bool
		wantOut string
	}{
		{"within bound", write("ok.json", 95, ""), true, "ok"},
		{"better", write("better.json", 150, ""), true, "ok"},
		{"beyond bound", write("bad.json", 60, ""), false, "REGRESSION"},
		{"a workload missing", write("holes.json", 100, "collect-paced"), false, "MISSING"},
	} {
		var sb strings.Builder
		ok, err := compareFiles(&sb, base, tc.cand)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ok != tc.wantOK || !strings.Contains(sb.String(), tc.wantOut) {
			t.Errorf("%s: ok=%v, want %v with %q in:\n%s", tc.name, ok, tc.wantOK, tc.wantOut, sb.String())
		}
	}
}

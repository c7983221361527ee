package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// readResults reads a result file: one suite JSON object per line (append
// several invocations to one file to compare medians). It returns, for each
// workload and end-to-end metric, the values of the plain runs.
func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	values := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var suite suiteResult
		if err := json.Unmarshal(sc.Bytes(), &suite); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, run := range suite.Runs {
			if run.Traced {
				continue
			}
			if !run.Correct {
				return nil, fmt.Errorf("%s: %s seed %d failed its correctness gate", path, run.Workload, run.Seed)
			}
			if values[run.Workload] == nil {
				values[run.Workload] = make(map[string][]float64)
			}
			for name, mv := range run.Metrics {
				values[run.Workload][name] = append(values[run.Workload][name], mv.Value)
			}
		}
	}
	return values, sc.Err()
}

// compareFiles prints, for every workload × end-to-end metric, the median of
// base and of cand, the relative change in the metric's worse direction, its
// bound and the verdict, and reports whether every pair stayed within bound.
// A pair missing from either file fails: a comparison with holes is not one.
func compareFiles(w io.Writer, basePath, candPath string) (bool, error) {
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readResults(candPath)
	if err != nil {
		return false, err
	}
	allOK := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tworse by\tbound\tverdict")
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			b, c := base[wl][d.Name], cand[wl][d.Name]
			if len(b) == 0 || len(c) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t%.0f%%\tMISSING\n", wl, d.Name, d.Bound*100)
				allOK = false
				continue
			}
			mb, mc := median(b), median(c)
			worse := worseBy(d, mb, mc)
			verdict := "ok"
			if worse > d.Bound {
				verdict = "REGRESSION"
				allOK = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n", wl, d.Name, mb, mc, worse*100, d.Bound*100, verdict)
		}
	}
	return allOK, tw.Flush()
}

// worseBy is the change from base to cand as a share of base, positive when
// the metric got worse.
func worseBy(d metricDef, base, cand float64) float64 {
	if base == 0 {
		return 0
	}
	change := (cand - base) / base
	if d.Better == "higher" {
		return -change
	}
	return change
}

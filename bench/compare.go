package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRuns loads a -json results file: one runRecord per line.
func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// samples collects one end-to-end metric's values over the untraced
// runs of one workload.
func samples(runs []runRecord, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// spread is the interquartile range as a share of the median, with the
// quartiles placed as Python's statistics.quantiles(xs, n=4) places them
// (rank q·(n+1), interpolated), so it reads the same as the driver's; 0
// with fewer than four samples, where quartiles say nothing.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	quartile := func(q float64) float64 {
		pos := q*float64(len(sorted)+1) - 1 // zero-based rank
		lo := int(pos)
		if lo >= len(sorted)-1 {
			return sorted[len(sorted)-1]
		}
		return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
	}
	return ratio(quartile(0.75)-quartile(0.25), median(sorted))
}

// verdict compares set b against set a for one metric: the relative
// worsening of b's median, and whether it is ok, regressed, or
// unresolved because the run-to-run spread is wider than the bound and
// the two sets overlap.
func verdict(a, b []float64, s metricSpec) (worse float64, status string) {
	ma, mb := median(a), median(b)
	worse = ratio(mb-ma, ma)
	if s.Better == "higher" {
		worse = -worse
	}
	sort.Float64s(a)
	sort.Float64s(b)
	// allBetter/allWorse: every run of b reads better (worse) than every
	// run of a.
	allBetter, allWorse := b[0] > a[len(a)-1], b[len(b)-1] < a[0]
	if s.Better == "lower" {
		allBetter, allWorse = allWorse, allBetter
	}
	wide := spread(a) > s.Bound || spread(b) > s.Bound
	switch {
	case wide && allBetter:
		return worse, "ok"
	case wide && !(allWorse && worse > s.Bound):
		return worse, "unresolved"
	case worse > s.Bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative change and the bound, and returns non-zero when any
// metric regressed or any run failed its checks.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRuns(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no runs", pathA)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readRuns(pathB)
	if err == nil && len(b) == 0 {
		err = fmt.Errorf("%s: no runs", pathB)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	status := 0
	for _, r := range append(append([]runRecord(nil), a...), b...) {
		if !r.Correct {
			fmt.Fprintf(stdout, "%s seed %d: run failed its checks (%d of %d operations failed)\n", r.Workload, r.Seed, r.Failed, r.Attempted)
			status = 1
		}
	}
	fmt.Fprintf(stdout, "%-22s %-12s %14s %14s %8s %7s %7s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "worse", "bound", "iqr a", "iqr b", "status")
	for _, w := range workloads {
		for _, s := range endToEnd {
			xa, xb := samples(a, w.Name, s.Name), samples(b, w.Name, s.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			worse, st := verdict(xa, xb, s)
			if st == "regressed" {
				status = 1
			}
			fmt.Fprintf(stdout, "%-22s %-12s %14.4f %14.4f %+7.1f%% %6.0f%% %6.1f%% %6.1f%%  %s (n=%d,%d %s)\n",
				w.Name, s.Name, median(xa), median(xb), 100*worse, 100*s.Bound, 100*spread(xa), 100*spread(xb), st, len(xa), len(xb), s.Unit)
		}
	}
	return status
}

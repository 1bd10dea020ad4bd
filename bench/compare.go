package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// sideStat is one side's reading of one metric on one workload: the
// median over its runs, and the quartiles the spread is judged by — over
// the runs when a side has several, over the slices of its single run
// otherwise.
type sideStat struct {
	median, q1, q3 float64
	runs           int
}

func (s sideStat) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}

// loadSide reads one or more result files (comma-separated) and groups
// the untraced results by workload.
func loadSide(paths string) (map[string][]*result, error) {
	out := map[string][]*result{}
	for _, p := range strings.Split(paths, ",") {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range f.Results {
			if r.Trace == 0 {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
	}
	return out, nil
}

func statOf(runs []*result, metric string) (sideStat, bool) {
	var vals []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			vals = append(vals, m.Value)
		}
	}
	if len(vals) == 0 {
		return sideStat{}, false
	}
	if len(vals) == 1 {
		m := runs[0].Metrics[metric]
		s := sideStat{median: m.Value, q1: m.Value, q3: m.Value, runs: 1}
		if m.Q1 != nil && m.Q3 != nil {
			s.q1, s.q3 = *m.Q1, *m.Q3
		}
		return s, true
	}
	q1, q2, q3 := quartiles(vals)
	return sideStat{median: q2, q1: q1, q3: q3, runs: len(vals)}, true
}

// verdictOf judges side b against side a for one metric. worse is the
// relative change in the metric's bad direction.
func verdictOf(def metricDef, a, b sideStat) (worse float64, status string) {
	if a.median != 0 {
		worse = (b.median - a.median) / a.median
	}
	lower := def.better == "lower"
	if !lower {
		worse = -worse
	}
	clearlyBetter := (lower && b.q3 < a.q1) || (!lower && b.q1 > a.q3)
	spread := a.spread()
	if s := b.spread(); s > spread {
		spread = s
	}
	switch {
	case clearlyBetter:
		return worse, "better"
	case spread > def.bound:
		// The quartiles are wider apart than the bound: this pair of
		// readings cannot tell a regression from noise.
		return worse, "unresolved"
	case worse > def.bound:
		return worse, "REGRESSION"
	}
	return worse, "ok"
}

// runCompare prints, per workload and end-to-end metric, both medians,
// the change against the metric's bound and a verdict. It returns the
// process exit code: 1 when any metric regressed.
func runCompare(w io.Writer, pathA, pathB string) int {
	a, errA := loadSide(pathA)
	b, errB := loadSide(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "bench: compare:", err)
		return 2
	}
	return compareSides(w, a, b)
}

func compareSides(w io.Writer, a, b map[string][]*result) int {
	code := 0
	fmt.Fprintf(w, "%-17s %-10s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, r := range append(append([]*result{}, ra...), rb...) {
			if !r.Correct {
				fmt.Fprintf(w, "%-17s a run failed its correctness checks (%d of %d)\n", wl.name, r.Failed, r.Attempted)
				code = 1
			}
		}
		for _, def := range endToEnd {
			sa, okA := statOf(ra, def.name)
			sb, okB := statOf(rb, def.name)
			if !okA || !okB {
				continue
			}
			worse, status := verdictOf(def, sa, sb)
			if status == "REGRESSION" {
				code = 1
			}
			fmt.Fprintf(w, "%-17s %-10s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
				wl.name, def.name, sa.median, sb.median, worse*100, def.bound*100, status)
		}
	}
	return code
}

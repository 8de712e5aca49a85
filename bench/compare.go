package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

func readDocuments(list string) ([]document, error) {
	var docs []document
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var d document
		if err := json.Unmarshal(data, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// sideSummary is one side of a comparison: a metric's median on a workload
// and the quartiles of the samples behind it. known is false when there is a
// single measurement and so no quartiles: the run-to-run spread was not
// measured, which is not the same as a spread of zero.
type sideSummary struct {
	median, q1, q3 float64
	n              int
	known          bool
}

func (s sideSummary) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return math.Abs((s.q3 - s.q1) / s.median)
}

// spreadText is the spread as printed: a percentage, or that there is none.
func (s sideSummary) spreadText() string {
	if !s.known {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", s.spread()*100)
}

// sideOf summarizes a metric on one side. Several documents are several
// runs: their values are the samples. A single document stands on the
// quartiles of its own reps, where the metric has any; service_mix's
// latencies are one measurement per run and need at least two runs a side.
func sideOf(docs []document, workload, metric string) (sideSummary, bool) {
	var vals []value
	for _, d := range docs {
		for _, w := range d.Workloads {
			if v, ok := w.EndToEnd[metric]; ok && w.Name == workload {
				vals = append(vals, v)
			}
		}
	}
	switch len(vals) {
	case 0:
		return sideSummary{}, false
	case 1:
		s := sideSummary{median: vals[0].Value, q1: vals[0].Value, q3: vals[0].Value, n: vals[0].N}
		if vals[0].Q1 != nil {
			s.q1, s.q3, s.known = *vals[0].Q1, *vals[0].Q3, true
		}
		return s, true
	}
	samples := make([]float64, len(vals))
	for i, v := range vals {
		samples[i] = v.Value
	}
	q1, q3 := quartiles(samples)
	return sideSummary{median: median(samples), q1: q1, q3: q3, n: len(samples), known: true}, true
}

// Verdicts of one (workload, metric) pair.
const (
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictUnchanged  = "unchanged"
	verdictBetter     = "better"
)

// judge compares change against base under a metric's bound. worse is the
// share of the base's median by which the change is worse (negative when it
// is better). A pair whose quartile range, on either side, is wider than the
// bound or was not measured cannot be called unchanged: the noise could hide
// a regression of the size the bound forbids.
func judge(def metricDef, base, change sideSummary) (verdict string, worse float64) {
	if base.median != 0 {
		worse = (change.median - base.median) / math.Abs(base.median)
		if def.Better == higher {
			worse = -worse
		}
	}
	switch {
	case worse > def.Bound:
		return verdictRegression, worse
	case !base.known || !change.known || base.spread() > def.Bound || change.spread() > def.Bound:
		return verdictUnresolved, worse
	case worse < -def.Bound:
		return verdictBetter, worse
	}
	return verdictUnchanged, worse
}

// compare prints one row per (workload, end-to-end metric) pair present on
// both sides and reports whether any pair regressed or stayed unresolved.
func compare(w io.Writer, base, change []document) (regressions, unresolved int) {
	fmt.Fprintf(w, "%-15s %-21s %14s %14s %9s %6s %8s %8s  %s\n",
		"workload", "metric", "base", "change", "chg/base", "bound", "iqr.base", "iqr.chg", "verdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			a, okA := sideOf(base, wl.name, def.Name)
			b, okB := sideOf(change, wl.name, def.Name)
			if !okA || !okB {
				continue
			}
			verdict, _ := judge(def, a, b)
			switch verdict {
			case verdictRegression:
				regressions++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(w, "%-15s %-21s %14.6g %14.6g %9.4f %5.0f%% %8s %8s  %s\n",
				wl.name, def.Name, a.median, b.median, ratio(b.median, a.median),
				def.Bound*100, a.spreadText(), b.spreadText(), verdict)
		}
	}
	for _, side := range [][]document{base, change} {
		for _, d := range side {
			for _, r := range d.Workloads {
				if r.Failed > 0 || !r.Correct {
					regressions++
					fmt.Fprintf(w, "%-15s failed_frac: %d of %d operations failed (bound 0)  %s\n",
						r.Name, r.Failed, r.Attempted, verdictRegression)
				}
			}
		}
	}
	fmt.Fprintf(w, "chg/base is the change's median over the base's; iqr n/a: one measurement, spread not known; %d regression(s), %d unresolved\n", regressions, unresolved)
	return regressions, unresolved
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	up := metricDef{Name: "reads_per_s", Better: higher, Bound: 0.10}
	down := metricDef{Name: "job_latency_p50_ms", Better: lower, Bound: 0.10}
	tight := func(m float64) sideSummary {
		return sideSummary{median: m, q1: m * 0.99, q3: m * 1.01, n: 11, known: true}
	}
	noisy := func(m float64) sideSummary {
		return sideSummary{median: m, q1: m * 0.9, q3: m * 1.1, n: 11, known: true}
	}
	single := func(m float64) sideSummary { return sideSummary{median: m, q1: m, q3: m, n: 1} }
	cases := []struct {
		name         string
		def          metricDef
		base, change sideSummary
		want         string
	}{
		{"same", up, tight(1000), tight(1000), verdictUnchanged},
		{"5 % slower is inside the bound", up, tight(1000), tight(950), verdictUnchanged},
		{"15 % slower", up, tight(1000), tight(850), verdictRegression},
		{"15 % faster", up, tight(1000), tight(1150), verdictBetter},
		{"latency up 15 %", down, tight(100), tight(115), verdictRegression},
		{"latency down 15 %", down, tight(100), tight(85), verdictBetter},
		{"quartiles wider than the bound", up, noisy(1000), tight(990), verdictUnresolved},
		{"noise on the change side counts too", down, tight(100), noisy(102), verdictUnresolved},
		{"a regression stays one under noise", up, noisy(1000), noisy(800), verdictRegression},
		{"a single measurement's spread is not known, not zero", up, single(10), single(9.5), verdictUnresolved},
		{"one side measured once is enough", down, tight(100), single(101), verdictUnresolved},
		{"a regression stays one when measured once", up, single(10), single(8), verdictRegression},
	}
	for _, c := range cases {
		if got, _ := judge(c.def, c.base, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// record writes a hand-made run record holding one workload. Its setup_s
// stands for a metric measured once per run, as service_mix's latencies are:
// it carries no quartiles.
func record(t *testing.T, dir, name string, readsPerS, q1, q3, setupS float64, failed int) string {
	t.Helper()
	doc := document{Schema: 1, Seed: 11, Workloads: []workloadResult{{
		Name: "wgs_fused", Attempted: 11, Failed: failed, Correct: failed == 0, N: 11 - failed,
		EndToEnd: map[string]value{
			"reads_per_s": {Value: readsPerS, Unit: "records/s", Q1: &q1, Q3: &q3, N: 11},
			"setup_s":     {Value: setupS, Unit: "s", N: 1},
		},
	}}}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareRecords(t *testing.T) {
	dir := t.TempDir()
	def, _ := findDef(endToEnd, "reads_per_s")
	worse := 50000 * (1 - def.Bound - 0.05) // beyond the bound
	half := 50000 * (def.Bound/2 + 0.02)    // quartiles wider than the bound
	base := record(t, dir, "base.json", 50000, 49500, 50500, 6.00, 0)
	same := record(t, dir, "same.json", 49000, 48800, 49900, 6.40, 0)
	slow := record(t, dir, "slow.json", worse, worse-200, worse+300, 6.10, 0)
	wide := record(t, dir, "wide.json", 50500, 50500-half, 50500+half, 6.00, 0)
	failed := record(t, dir, "failed.json", 50000, 49500, 50500, 6.00, 1)

	run := func(a, b string) (string, int, int) {
		t.Helper()
		da, err := readDocuments(a)
		if err != nil {
			t.Fatal(err)
		}
		db, err := readDocuments(b)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		reg, unres := compare(&out, da, db)
		return out.String(), reg, unres
	}

	// One run a side: reads_per_s stands on its reps' quartiles, setup_s was
	// measured once and cannot be called unchanged.
	out, reg, unres := run(base, same)
	if reg != 0 || unres != 1 || !strings.Contains(out, "n/a") {
		t.Errorf("same commit, one run a side: %d regressions, %d unresolved, want 0 and 1 (setup_s)\n%s", reg, unres, out)
	}
	if rows := strings.Count(out, "wgs_fused"); rows != 2 {
		t.Errorf("want one row per metric present on both sides (2), got %d\n%s", rows, out)
	}
	if out, reg, _ = run(base, slow); reg != 1 || !strings.Contains(out, verdictRegression) {
		t.Errorf("slower than the bound allows: %d regressions\n%s", reg, out)
	}
	if out, reg, unres = run(base, wide); reg != 0 || unres != 2 {
		t.Errorf("wide quartiles: %d regressions, %d unresolved, want 0 and 2\n%s", reg, unres, out)
	}
	if out, reg, _ = run(base, failed); reg != 1 || !strings.Contains(out, "failed_frac") {
		t.Errorf("a failed operation must count as a regression: %d\n%s", reg, out)
	}
	// A set of runs per side: the values across runs are the samples.
	if out, reg, unres = run(base+","+same, same+","+base); reg != 0 || unres != 0 {
		t.Errorf("sets of runs: %d regressions, %d unresolved\n%s", reg, unres, out)
	}
	if _, err := readDocuments(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing record should be an error")
	}
}

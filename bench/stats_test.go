package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// about is near for values that went through a time.Duration's nanoseconds.
func about(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(1, math.Abs(b)) }

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4) (the default, exclusive method).
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{3, 1}, 2, 0.5, 3.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 23, 10, 38},
		{[]float64{1.5, 1.7, 1.6, 1.9, 1.4, 1.8, 2.6, 1.5, 1.6, 1.7, 1.5}, 1.6, 1.5, 1.8},
	}
	for _, c := range cases {
		if got := median(c.xs); !near(got, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if median(nil) != 0 {
		t.Error("median of nothing should be 0")
	}
}

func TestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n       int
		p, want float64
	}{
		{7, 0.95, 0.5},    // a handful of reps: the median only
		{19, 0.95, 0.5},   // still fewer than twenty
		{20, 0.95, 0.5},   // exactly ten beyond the median
		{100, 0.95, 0.90}, // p95 would have five beyond it
		{199, 0.95, 1 - 10.0/199},
		{200, 0.95, 0.95}, // ten beyond: supported
		{20000, 0.99, 0.99},
		{200, 0.5, 0.5},
	}
	for _, c := range cases {
		if got := supportedPercentile(c.n, c.p); !near(got, c.want) {
			t.Errorf("supportedPercentile(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestPercentileOf(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted on purpose
	}
	// n = 200: p95 is the 190th of 200, which leaves ten samples beyond it.
	if v, used := percentileOf(xs, 200, 0.95); v != 190 || used != 0.95 {
		t.Errorf("p95 of 1..200 = %v (p%v), want 190 (p0.95)", v, used)
	}
	// n = 100: lowered to p90, the 90th of 100.
	if v, used := percentileOf(xs[100:], 100, 0.95); v != 90 || !near(used, 0.9) {
		t.Errorf("p95 of 1..100 = %v (p%v), want 90 (p0.9)", v, used)
	}
	// Few samples: the median, interpolated like any other median.
	if v, used := percentileOf([]float64{4, 1, 3, 2}, 4, 0.95); v != 2.5 || used != 0.5 {
		t.Errorf("p95 of four samples = %v (p%v), want the median 2.5", v, used)
	}
	// Failed operations rank slowest: 190 completed of 200 attempted puts
	// the 190th rank on the slowest completed one.
	if v, _ := percentileOf(xs[10:], 200, 0.95); v != 190 {
		t.Errorf("p95 with ten failures = %v, want the slowest completed, 190", v)
	}
	// ...and a rank that lands among the failures reports the slowest
	// completed latency rather than inventing one.
	if v, _ := percentileOf(xs[50:], 200, 0.95); v != 150 {
		t.Errorf("p95 with fifty failures = %v, want 150", v)
	}
	if v, _ := percentileOf(nil, 10, 0.95); v != 0 {
		t.Errorf("percentile of nothing = %v, want 0", v)
	}
}

func TestOnReferenceHost(t *testing.T) {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	cases := []struct {
		name              string
		wall, cpu, slow   float64
		wantWall, wantCPU float64
	}{
		{"the reference host changes nothing", 2, 1.5, 1, 2, 1.5},
		{"processor-bound: all of it shrinks", 1.5, 1.5, 1.5, 1, 1},
		{"half waiting: only the processor's half shrinks", 2, 1, 2, 1.5, 0.5},
		{"all waiting", 1, 0, 1.3, 1, 0},
		{"more processors than one: the wall bounds what shrinks", 1, 1.8, 2, 0.5, 0.9},
		{"a faster host stretches it", 1, 1, 0.8, 1.25, 1.25},
	}
	for _, c := range cases {
		u := usage{probe: sec(c.slow * probeReferenceSeconds), wall: sec(c.wall), cpuSeconds: c.cpu}
		if wall, cpu := u.onReferenceHost(); !about(wall, c.wantWall) || !about(cpu, c.wantCPU) {
			t.Errorf("%s: wall %v cpu %v on a host %v times slower = %v, %v, want %v, %v",
				c.name, c.wall, c.cpu, c.slow, wall, cpu, c.wantWall, c.wantCPU)
		}
	}
}

// A run on a host that a neighbour slowed by half for three of its seven
// reps, and for one of its set-ups: each is put on the reference host by its
// own probe, so the slow spell does not show.
func TestEndToEndValuesOnTheReferenceHost(t *testing.T) {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	rep := func(wall, slow float64) repOutcome {
		return repOutcome{records: 1000, usage: usage{
			probe: sec(slow * probeReferenceSeconds), wall: sec(wall * slow), cpuSeconds: wall * slow,
			mallocs: 2000, allocBytes: 64000,
		}}
	}
	m := &measurement{
		setups: []usage{
			{probe: sec(probeReferenceSeconds), wall: sec(2), cpuSeconds: 2},
			{probe: sec(1.5 * probeReferenceSeconds), wall: sec(3.3), cpuSeconds: 3.3},
			{probe: sec(probeReferenceSeconds), wall: sec(2.1), cpuSeconds: 2.1},
		},
		reps: []repOutcome{
			rep(0.50, 1), rep(0.52, 1.5), rep(0.51, 1), rep(0.49, 1.5), rep(0.50, 1), rep(0.53, 1.5), rep(0.50, 1),
		},
	}
	if got := m.repWall(); !about(got, 0.50) {
		t.Errorf("rep wall %v, want 0.50", got)
	}
	vals, tail := endToEndValues(m)
	want := map[string]float64{
		"setup_s": 2.1, "reads_per_s": 2000, "cpu_s_per_mread": 500,
		"allocs_per_read": 2, "alloc_bytes_per_read": 64,
	}
	for name, w := range want {
		if got := vals[name]; !about(got.Value, w) || got.Q1 == nil {
			t.Errorf("%s = %v, want %v with quartiles", name, got.Value, w)
		}
	}
	if _, ok := vals["jobs_per_s"]; ok || tail != 0 {
		t.Error("a pipeline workload's reps are not jobs")
	}

	// A rep that waits half of its wall: only the processor's half shrinks.
	m.reps = []repOutcome{{records: 1000, usage: usage{probe: sec(1.25 * probeReferenceSeconds), wall: sec(1), cpuSeconds: 0.5}}}
	vals, _ = endToEndValues(m)
	if got := m.repWall(); !about(got, 0.9) || !about(vals["cpu_s_per_mread"].Value, 400) {
		t.Errorf("half waiting on a host 1.25 times slower: rep wall %v, cpu %v, want 0.9, 400", got, vals["cpu_s_per_mread"].Value)
	}

	// Rounds of jobs: a job's latency is put on the reference host with its
	// round.
	round := rep(0.8, 1.5)
	round.jobs = []jobTiming{{total: sec(0.3)}, {total: sec(0.6)}}
	m.reps = []repOutcome{round, round}
	vals, tail = endToEndValues(m)
	if !about(vals["jobs_per_s"].Value, 2.5) || !about(vals["job_latency_p50_ms"].Value, 300) || tail != 0.5 {
		t.Errorf("rounds: %v jobs/s, p50 %v ms (tail p%v), want 2.5, 300, 0.5",
			vals["jobs_per_s"].Value, vals["job_latency_p50_ms"].Value, tail)
	}
}

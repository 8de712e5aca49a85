package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
)

// value is one reported metric. Q1, Q3 and N describe the samples the value
// is the median of, where it is one; a single measurement has N = 1 and no
// quartiles.
type value struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Q1    *float64 `json:"q1,omitempty"`
	Q3    *float64 `json:"q3,omitempty"`
	N     int      `json:"n,omitempty"`
}

// host is the fingerprint a later reader needs to tell a 2-core result from
// a 1-vCPU one.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
}

func hostFingerprint() host {
	h := host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		Commit: "unknown", // stamped by the go tool only when built inside a git checkout
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+dirty"
				}
			}
		}
	}
	return h
}

// workloadResult is the run record of one workload.
type workloadResult struct {
	Name  string `json:"name"`
	Why   string `json:"why"`
	Input sizes  `json:"input"`
	// Attempted and Failed count operations: reps, or jobs. Correct means
	// none failed and every output matched its golden.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Correct   bool     `json:"correct"`
	// N is how many operations completed; OpWallS and OpCPUS have every
	// one's wall and CPU seconds as measured (a rep of a pipeline workload, a
	// round of eight jobs of service_mix) and ProbeS the host probe's wall
	// before every set-up and rep. RepWallS is the median rep wall on the
	// reference host, which the timing metrics stand on.
	N        int       `json:"n"`
	OpWallS  []float64 `json:"op_wall_s"`
	OpCPUS   []float64 `json:"op_cpu_s"`
	ProbeS   []float64 `json:"probe_s"`
	RepWallS float64   `json:"rep_wall_s"`
	// TailPercentile is the percentile job_latency_p95_ms actually reports
	// (service_mix only): 0.95 when the jobs it is taken from leave ten
	// samples beyond it, lower otherwise.
	TailPercentile float64          `json:"tail_percentile,omitempty"`
	EndToEnd       map[string]value `json:"end_to_end,omitempty"`
	PerLayer       map[string]value `json:"per_layer,omitempty"`
}

// document is what a full run writes with -out and -compare reads.
type document struct {
	Schema    int              `json:"schema"`
	Claim     *string          `json:"claim"` // the benchmark's own runs claim no gain
	Host      host             `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	TraceFile string           `json:"trace_file,omitempty"`
	Workloads []workloadResult `json:"workloads"`
}

// summarize reports samples as their median with quartiles.
func summarize(unit string, samples []float64) value {
	v := value{Value: median(samples), Unit: unit, N: len(samples)}
	if len(samples) > 1 {
		q1, q3 := quartiles(samples)
		v.Q1, v.Q3 = &q1, &q3
	}
	return v
}

func unitOf(defs []metricDef, name string) string {
	d, _ := findDef(defs, name)
	return d.Unit
}

// endToEndValues renders a run's set-ups and reps under the end-to-end
// metric names: each the median over the reps, every time first put on the
// reference host by the probe that ran before it (usage.onReferenceHost).
// The three job metrics are service_mix's: its reps are rounds of jobs, each
// job with a latency of its own; tail is the percentile job_latency_p95_ms
// reports.
func endToEndValues(m *measurement) (vals map[string]value, tail float64) {
	setupS := make([]float64, len(m.setups))
	for i, u := range m.setups {
		setupS[i], _ = u.onReferenceHost()
	}
	n := len(m.reps)
	rate, cpuPer, allocs, bytes := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	var jobRate, ms []float64
	for i, r := range m.reps {
		wall, cpu := r.usage.onReferenceHost()
		recs := float64(r.records)
		rate[i], cpuPer[i] = recs/wall, cpu/recs*1e6
		allocs[i], bytes[i] = float64(r.usage.mallocs)/recs, float64(r.usage.allocBytes)/recs
		if r.jobs == nil {
			continue
		}
		jobRate = append(jobRate, float64(len(r.jobs))/wall)
		for _, jt := range r.jobs {
			ms = append(ms, jt.total.Seconds()*1e3*wall/r.usage.wall.Seconds())
		}
	}
	e := func(name string, samples []float64) value { return summarize(unitOf(endToEnd, name), samples) }
	vals = map[string]value{
		"setup_s":              e("setup_s", setupS),
		"reads_per_s":          e("reads_per_s", rate),
		"cpu_s_per_mread":      e("cpu_s_per_mread", cpuPer),
		"allocs_per_read":      e("allocs_per_read", allocs),
		"alloc_bytes_per_read": e("alloc_bytes_per_read", bytes),
	}
	if ms == nil {
		return vals, 0
	}
	p95, tail := percentileOf(ms, len(ms), 0.95)
	// One run's latencies are different jobs, not repeated measurements of
	// one: their quartiles say nothing about run-to-run noise.
	vals["jobs_per_s"] = e("jobs_per_s", jobRate)
	vals["job_latency_p50_ms"] = value{Value: median(ms), Unit: "ms", N: len(ms)}
	vals["job_latency_p95_ms"] = value{Value: p95, Unit: "ms", N: len(ms)}
	return vals, tail
}

// perLayerSamples gathers the per-layer numbers the reps' reports carried,
// one sample per rep.
func perLayerSamples(reps []repOutcome) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range reps {
		for k, v := range r.layer {
			out[k] = append(out[k], v)
		}
	}
	return out
}

// perLayerValues merges the medians of the per-rep report samples with the
// traced pass's metrics.
func perLayerValues(m *measurement, traced map[string]float64) map[string]value {
	out := make(map[string]value)
	for name, samples := range perLayerSamples(m.reps) {
		out[name] = summarize(unitOf(perLayer, name), samples)
	}
	for name, v := range traced {
		out[name] = value{Value: v, Unit: unitOf(perLayer, name), N: 1}
	}
	return out
}

func printValues(w io.Writer, vals map[string]value, defs []metricDef) {
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "    %-30s %16.6g %-10s", d.Name, v.Value, v.Unit)
		if v.Q1 != nil {
			fmt.Fprintf(w, " q1 %.6g q3 %.6g", *v.Q1, *v.Q3)
		}
		if v.N > 0 {
			fmt.Fprintf(w, " n=%d", v.N)
		}
		fmt.Fprintln(w)
	}
	// Anything a workload reported outside the contract would be a bug;
	// show it rather than drop it.
	var extra []string
	for name := range vals {
		if _, ok := findDef(defs, name); !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "    %-30s %16.6g (not in the contract)\n", name, vals[name].Value)
	}
}

func printWorkload(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "== %s  genome=%d reads=%d chunk=%d dup=%.2f\n", r.Name,
		r.Input.GenomeBP, r.Input.Reads, r.Input.Chunk, r.Input.DupFrac)
	fmt.Fprintf(w, "   why: %s\n", r.Why)
	fmt.Fprintf(w, "   operations: attempted=%d failed=%d n=%d failed_frac=%.4g correct=%v\n",
		r.Attempted, r.Failed, r.N, ratio(float64(r.Failed), float64(r.Attempted)), r.Correct)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "   op walls (s): %.4g\n", r.OpWallS)
	fmt.Fprintf(w, "   host probe (s): %.3g  (reference host: %g)\n", r.ProbeS, probeReferenceSeconds)
	fmt.Fprintf(w, "   median rep wall on the reference host: %.4g s\n", r.RepWallS)
	if r.EndToEnd != nil {
		fmt.Fprint(w, "  end to end (tracing off")
		if r.TailPercentile > 0 {
			fmt.Fprintf(w, "; job_latency_p95_ms reports p%.4g of %d jobs", r.TailPercentile*100, r.EndToEnd["job_latency_p95_ms"].N)
		}
		fmt.Fprintln(w, ")")
		printValues(w, r.EndToEnd, endToEnd)
	}
	if r.PerLayer != nil {
		fmt.Fprintln(w, "  per layer")
		printValues(w, r.PerLayer, perLayer)
	}
}

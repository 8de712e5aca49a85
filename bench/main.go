// Command bench is the repository's benchmark: six workloads, the end-to-end
// metrics a user of the system sees (measured with tracing off) and a
// per-layer budget taken from a separate traced pass that times calls into
// each layer's public functions from this package's own files. See
// README.md for the metrics, the workloads and how they interact.
//
//	go run . -seed 11                         every workload, both passes, a JSON record with -out
//	go run . --workload wgs_fused --seed 3 --seconds 8 --trace 0
//	                                          one workload for the driver: the last line is its result
//	go run . -compare base.json change.json   judge two records (or comma-separated sets) by the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

// workDir is where the benchmark keeps everything it writes, relative to
// the directory it is run from: temp stores, traces. It is the directory the
// driver reserves for build output, and .gitignore names it.
const workDir = ".bench_build"

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int // 0 end to end only, 1 per layer only, -1 both
	traceOut string
	out      string
}

func main() {
	var o options
	doCompare := flag.Bool("compare", false, "compare two run records: -compare base.json change.json (each may be a comma-separated set of runs)")
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all)")
	flag.Int64Var(&o.seed, "seed", 11, "seed every input is synthesized from")
	flag.Float64Var(&o.seconds, "seconds", 8, "how long each workload's timed reps run, set-ups not counted")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass; -1: both")
	flag.StringVar(&o.traceOut, "trace-out", "", "Chrome trace-event file of the traced pass (default: under "+workDir+"/trace)")
	flag.StringVar(&o.out, "out", "", "write the run record as JSON to this file")
	flag.Parse()
	// The program runs on one processor. The host gives the benchmark two
	// vCPUs of shared hardware, and a load that keeps both busy measures
	// whatever else wants one of them (README, "Sizing and steadiness").
	runtime.GOMAXPROCS(1)

	if *doCompare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare base.json change.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	}
	os.Exit(run(o))
}

func runCompare(baseList, changeList string) int {
	base, err := readDocuments(baseList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	change, err := readDocuments(changeList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if regressions, _ := compare(os.Stdout, base, change); regressions > 0 {
		return 1
	}
	return 0
}

// run executes the selected workloads and returns the process exit code:
// non-zero when any operation failed or any output missed its golden.
func run(o options) int {
	selected := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		selected = []workload{w}
	}
	// Everything written lives under one private temp root, removed on
	// every way out: normal return, failure, and SIGINT/SIGTERM. A signal
	// cancels the context, the work in flight unwinds, and the deferred
	// removal runs once nothing writes under the root any more; a second
	// signal kills the process outright.
	if err := os.MkdirAll(filepath.Join(workDir, "tmp"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	tmp, err := os.MkdirTemp(filepath.Join(workDir, "tmp"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	e := &env{tmp: tmp}

	doc := document{Schema: 1, Host: hostFingerprint(), Seed: o.seed, Seconds: o.seconds}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s  seed=%d seconds=%g\n",
		doc.Host.NProc, doc.Host.GOMAXPROCS, doc.Host.Go, doc.Host.OS, doc.Host.Arch, doc.Host.Commit, o.seed, o.seconds)

	traces := make(map[string][]span)
	var order []string
	ok := true
	for _, w := range selected {
		if ctx.Err() != nil {
			break
		}
		res, spans, err := runWorkload(ctx, e, w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			ok = false
			if res == nil {
				continue
			}
		}
		ok = ok && res.Correct
		printWorkload(os.Stdout, res)
		doc.Workloads = append(doc.Workloads, *res)
		if spans != nil {
			traces[w.name] = spans
			order = append(order, w.name)
		}
	}

	if len(order) > 0 {
		path := o.traceOut
		if path == "" {
			dir := filepath.Join(workDir, "trace")
			name := "all"
			if o.workload != "" {
				name = o.workload
			}
			path = filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, o.seed))
			err = os.MkdirAll(dir, 0o755)
		}
		if err == nil {
			err = writeChromeTrace(path, traces, order)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ok = false
		} else {
			doc.TraceFile = path
			fmt.Println("trace:", path)
		}
	}
	if o.out != "" {
		data, err := json.MarshalIndent(doc, "", " ")
		if err == nil {
			err = os.WriteFile(o.out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ok = false
		} else {
			fmt.Println("record:", o.out)
		}
	}

	// The driver's contract: one workload, one pass, the result as the last
	// line of standard output.
	if o.workload != "" && o.trace >= 0 && len(doc.Workloads) == 1 {
		printDriverResult(&doc.Workloads[0], o.trace)
	}
	if ctx.Err() != nil {
		return 130
	}
	if !ok {
		return 1
	}
	return 0
}

// A run sets its workload up setups times, each from nothing, and measures
// a third of its reps on each instance: one set-up is a single two-second
// sample of setup_s. The traced pass does not report set-up and sets up
// once.
const (
	setups = 3
	// minReps is the fewest timed reps an instance runs, whatever --seconds
	// says.
	minReps = 3
)

// runWorkload sets a workload up, runs its timed reps with tracing off and
// then, unless only the end-to-end pass was asked for, the traced pass on
// the last instance. A result is returned beside an error when the timed
// section got far enough to be reported.
func runWorkload(ctx context.Context, e *env, w workload, o options) (*workloadResult, []span, error) {
	n, seconds := setups, o.seconds
	if o.trace == 1 {
		// The traced pass only needs the reports of a few untraced reps.
		n, seconds = 1, seconds/2
	}
	m := &measurement{}
	var inst instance
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	var err error
	for i := 0; i < n && err == nil; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		u, serr := timed(func() error {
			var err error
			inst, err = w.setup(ctx, e, o.seed)
			return err
		})
		if serr != nil {
			return nil, nil, fmt.Errorf("set-up: %w", serr)
		}
		m.setups = append(m.setups, u)
		err = m.measureReps(ctx, seconds/float64(n), minReps, inst.rep)
	}
	if ctx.Err() != nil {
		return nil, nil, ctx.Err()
	}
	res := &workloadResult{
		Name: w.name, Why: w.why, Input: inst.input(),
		Attempted: m.attempted, Failed: m.failed, Failures: m.failures,
		N: len(m.reps), OpWallS: m.repWalls(), OpCPUS: m.repCPUs(), ProbeS: m.probeWalls(), RepWallS: m.repWall(),
		Correct: err == nil && m.failed == 0 && len(m.reps) > 0,
	}
	if err != nil || len(m.reps) == 0 {
		return res, nil, err
	}
	ee, tail := endToEndValues(m)
	res.TailPercentile = tail
	if o.trace != 1 {
		res.EndToEnd = ee
	}
	if o.trace == 0 {
		return res, nil, nil
	}
	tr := newTracer()
	traced, err := inst.layers(ctx, tr, m)
	if err != nil {
		res.Correct = false
		res.Failures = append(res.Failures, err.Error())
		return res, nil, fmt.Errorf("traced pass: %w", err)
	}
	res.PerLayer = perLayerValues(m, traced)
	return res, tr.snapshot(), nil
}

// driverResult is the one JSON object the driver reads from the last line.
type driverResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// printDriverResult prints every metric of the pass that ran — each
// end-to-end metric with --trace 0, each per-layer metric with --trace 1 —
// a per-layer metric the workload does not exercise reading 0. The driver
// wants every end-to-end name on every workload and none of them 0, so on a
// pipeline workload, where a "job" is a rep, its line restates the rep wall
// under the three job metrics; the record, the printed table and -compare
// carry them for service_mix only.
func printDriverResult(r *workloadResult, trace int) {
	defs, vals := endToEnd, r.EndToEnd
	if trace == 1 {
		defs, vals = perLayer, r.PerLayer
	} else if _, ok := vals["jobs_per_s"]; !ok {
		wall := r.RepWallS
		vals = maps.Clone(vals)
		vals["jobs_per_s"] = value{Value: ratio(1, wall)}
		vals["job_latency_p50_ms"] = value{Value: wall * 1e3}
		vals["job_latency_p95_ms"] = value{Value: wall * 1e3}
	}
	out := driverResult{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]value)}
	for _, d := range defs {
		out.Metrics[d.Name] = value{Value: vals[d.Name].Value, Unit: d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return
	}
	fmt.Println(string(line))
}

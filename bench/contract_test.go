package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the keys of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTheProgram keeps the contract file and the tables
// the program reports from in step: same workloads, same metrics, same
// units, directions and bounds, within the limits the driver enforces.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n  go  %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n  go  %+v", b.PerLayer, perLayer)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the driver's limits", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: json %q, program %q (or their whys differ)", i, w.Name, workloads[i].name)
		}
		if n := len([]rune(w.Why)); n > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, n)
		}
		use(w.Name)
	}
	var sawSetup bool
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		use(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the driver's limits", d.Name, d.Unit)
		}
		if d.Better != higher && d.Better != lower {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			sawSetup = d.Unit == "s" && d.Better == lower
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s should carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !sawSetup {
		t.Error("end_to_end needs setup_s, unit s, lower is better")
	}
	for _, d := range perLayer {
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("counts outside the contract: %d end-to-end, %d per-layer, %d workloads", len(endToEnd), len(perLayer), len(workloads))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
}

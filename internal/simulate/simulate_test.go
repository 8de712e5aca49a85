package simulate

import (
	"math"
	"reflect"
	"testing"
)

func TestTable1Shape(t *testing.T) {
	p := DefaultPaperParams()
	rows, err := Table1(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Config] = r
	}

	single := byName["Disk(Single)"]
	// Paper: 817 vs 501 s → 1.63×. Shape: Persona wins by 1.4–1.9×.
	if single.Speedup < 1.4 || single.Speedup > 1.9 {
		t.Fatalf("single-disk speedup %.2f, want ≈1.63", single.Speedup)
	}
	// Persona single-disk should be close to compute-bound time (~496 s).
	compute := p.TotalBases / p.NodeRate
	if single.PersonaSeconds < compute*0.98 || single.PersonaSeconds > compute*1.15 {
		t.Fatalf("persona single-disk %.0f s, compute bound is %.0f s", single.PersonaSeconds, compute)
	}

	raid := byName["Disk(RAID)"]
	// Paper: 494 vs 499 → ≈1.0 (both compute bound).
	if raid.Speedup < 0.9 || raid.Speedup > 1.1 {
		t.Fatalf("RAID speedup %.2f, want ≈1.0", raid.Speedup)
	}

	network := byName["Network"]
	// Paper: 760 vs 493.5 → 1.54×.
	if network.Speedup < 1.3 || network.Speedup > 1.8 {
		t.Fatalf("network speedup %.2f, want ≈1.54", network.Speedup)
	}

	// Data-volume shape: SNAP writes ~16.75× more than Persona.
	if ratio := p.SAMWriteBytes / p.AGDWriteBytes; ratio < 15 || ratio > 18 {
		t.Fatalf("write amplification %.1f, want ≈16.75", ratio)
	}
}

func TestFig5SNAPSingleDiskIsCyclical(t *testing.T) {
	p := DefaultPaperParams()
	traces, err := Fig5(p)
	if err != nil {
		t.Fatal(err)
	}
	snap := traces["snap-singledisk"]
	// Count CPU troughs: transitions from >0.8 to <0.4 — the §5.3
	// writeback stalls.
	dips := 0
	high := false
	for _, s := range snap.Trace {
		if s.CPU > 0.8 {
			high = true
		}
		if high && s.CPU < 0.4 {
			dips++
			high = false
		}
	}
	if dips < 5 {
		t.Fatalf("SNAP single-disk trace has %d CPU dips, want cyclical behaviour", dips)
	}
	if snap.AvgCPU > 0.85 {
		t.Fatalf("SNAP single-disk avg CPU %.2f, should be throttled by disk", snap.AvgCPU)
	}

	persona := traces["persona-singledisk"]
	if persona.AvgCPU < 0.9 {
		t.Fatalf("Persona single-disk avg CPU %.2f, want CPU bound", persona.AvgCPU)
	}

	// RAID0: both roughly CPU bound (Fig. 5b).
	if traces["snap-raid0"].AvgCPU < 0.85 || traces["persona-raid0"].AvgCPU < 0.9 {
		t.Fatalf("RAID0 traces not CPU bound: snap %.2f persona %.2f",
			traces["snap-raid0"].AvgCPU, traces["persona-raid0"].AvgCPU)
	}
}

func TestFig7LinearThenSaturates(t *testing.T) {
	p := DefaultPaperParams()
	counts := []int{1, 2, 4, 8, 16, 32, 48, 60, 70, 85, 100}
	points, err := Fig7(p, counts)
	if err != nil {
		t.Fatal(err)
	}
	byNodes := map[int]Fig7Point{}
	for _, pt := range points {
		byNodes[pt.Nodes] = pt
	}

	// Linear region: throughput at 32 nodes ≈ 32 × single-node. The paper's
	// own measured 32-node point sits at ~93% of its ideal line (1.353 vs
	// 1.454 Gbases/s), so the band accepts the startup-ramp discount.
	one := byNodes[1].BasesPerSec
	r32 := byNodes[32].BasesPerSec / (32 * one)
	if r32 < 0.90 || r32 > 1.05 {
		t.Fatalf("32-node efficiency %.3f, want ≈0.93-1", r32)
	}

	// Paper headline: ≈1.353 Gbases/s at 32 nodes, ≈16.7 s per genome.
	if g := byNodes[32].BasesPerSec / 1e9; g < 1.25 || g < 0 || g > 1.55 {
		t.Fatalf("32-node rate %.3f Gbases/s, want ≈1.35", g)
	}
	if s := byNodes[32].Seconds; s < 15 || s > 19 {
		t.Fatalf("32-node time %.1f s, want ≈16.7", s)
	}

	// Saturation: 100 nodes gain little over 70 (write-limited past ~60).
	gain := byNodes[100].BasesPerSec / byNodes[70].BasesPerSec
	if gain > 1.10 {
		t.Fatalf("100 vs 70 nodes gain %.2f, expected saturation", gain)
	}
	// And 60 nodes should still be reasonably efficient.
	r60 := byNodes[60].BasesPerSec / (60 * one)
	if r60 < 0.85 {
		t.Fatalf("60-node efficiency %.3f, want >0.85", r60)
	}
	// Sanity: non-decreasing throughput with more nodes.
	for i := 1; i < len(counts); i++ {
		if byNodes[counts[i]].BasesPerSec+1e3 < byNodes[counts[i-1]].BasesPerSec {
			t.Fatalf("throughput decreased from %d to %d nodes", counts[i-1], counts[i])
		}
	}
}

func TestFig6Shape(t *testing.T) {
	p := DefaultPaperParams()
	points := Fig6(p)
	if len(points) != 48 {
		t.Fatalf("points = %d", len(points))
	}
	at := func(threads int) Fig6Point { return points[threads-1] }

	// Near-linear to 24 threads.
	lin := at(24).PersonaSNAP / (24 * at(1).PersonaSNAP)
	if math.Abs(lin-1) > 0.05 {
		t.Fatalf("24-thread linearity %.3f", lin)
	}
	// Hyperthread gain ≈32% per extra thread pair region.
	gain := at(48).PersonaSNAP / at(24).PersonaSNAP
	if gain < 1.25 || gain > 1.4 {
		t.Fatalf("SMT gain %.3f, want ≈1.32", gain)
	}
	// SNAP drops at 48 threads, Persona does not.
	if at(48).SNAP >= at(47).SNAP {
		t.Fatal("SNAP should drop at 48 threads")
	}
	if at(48).PersonaSNAP < at(47).PersonaSNAP {
		t.Fatal("Persona SNAP should not drop at 48 threads")
	}
	// BWA flattens past 24; Persona BWA scales slightly better.
	if at(40).BWA > at(24).BWA*1.02 {
		t.Fatal("standalone BWA should not scale past 24 threads")
	}
	if at(40).PersonaBWA <= at(40).BWA {
		t.Fatal("Persona BWA should beat standalone BWA past 24 threads")
	}
	// Persona-SNAP at 47 threads matches the calibrated node rate.
	if math.Abs(at(47).PersonaSNAP-p.NodeRate)/p.NodeRate > 0.01 {
		t.Fatalf("47-thread rate %.3e, want %.3e", at(47).PersonaSNAP, p.NodeRate)
	}
}

func TestPipelineValidation(t *testing.T) {
	if _, err := RunPipeline(PipelineConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := RunPipeline(PipelineConfig{
		TotalBases: 1e9, ComputeRate: 1e6, SharedDiskBW: 1, ChannelBW: 1,
	}); err == nil {
		t.Fatal("two storage paths accepted")
	}
}

func TestFig7Validation(t *testing.T) {
	if _, err := Fig7(DefaultPaperParams(), []int{8, 0}); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

// TestFig7Golden and TestTable1Golden pin the model outputs bit for bit; the
// shape tests above would let a drifted constant or a reordered event through.
func TestFig7Golden(t *testing.T) {
	fig7, err := Fig7(DefaultPaperParams(), []int{1, 8, 32, 60, 100})
	if err != nil {
		t.Fatal(err)
	}
	want7 := []Fig7Point{
		{1, 4.535806939399528e+07, 496.78260783698704},
		{8, 3.575145398996207e+08, 63.02708697197774},
		{32, 1.3539903692215183e+09, 16.641994294948706},
		{60, 2.3721038045205e+09, 9.499204864921527},
		{100, 2.3721038045205e+09, 9.499204864921527},
	}
	if !reflect.DeepEqual(fig7, want7) {
		t.Errorf("Fig7 = %v, want %v", fig7, want7)
	}
}

func TestTable1Golden(t *testing.T) {
	table1, err := Table1(DefaultPaperParams())
	if err != nil {
		t.Fatal(err)
	}
	want1 := []Table1Row{
		{"Disk(Single)", 888.3499999997398, 515.400000000079, 1.7236127279775002},
		{"Disk(RAID)", 496.8000000000787, 496.3500000000786, 1.00090661831369},
		{"Network", 758.9499999998575, 495.80000000007846, 1.5307583703100793},
	}
	if !reflect.DeepEqual(table1, want1) {
		t.Errorf("Table1 = %v, want %v", table1, want1)
	}
}

// TestFig5Series pins the series names experiments.RunFig5 looks up and that
// each is the SNAP or Persona run on its device.
func TestFig5Series(t *testing.T) {
	p := DefaultPaperParams()
	got, err := Fig5(p)
	if err != nil {
		t.Fatal(err)
	}
	raid := p.DiskBW * float64(p.RAIDDisks)
	want := map[string]PipelineConfig{
		"snap-singledisk":    {ReadBytes: p.FASTQReadBytes, WriteBytes: p.SAMWriteBytes, SharedDiskBW: p.DiskBW},
		"persona-singledisk": {ReadBytes: p.AGDReadBytes, WriteBytes: p.AGDWriteBytes, SharedDiskBW: p.DiskBW},
		"snap-raid0":         {ReadBytes: p.FASTQReadBytes, WriteBytes: p.SAMWriteBytes, SharedDiskBW: raid},
		"persona-raid0":      {ReadBytes: p.AGDReadBytes, WriteBytes: p.AGDWriteBytes, SharedDiskBW: raid},
	}
	if len(got) != len(want) {
		t.Fatalf("Fig5 series %d, want %d", len(got), len(want))
	}
	for name, cfg := range want {
		cfg.Name, cfg.TotalBases, cfg.ComputeRate = name, p.TotalBases, p.NodeRate
		res, ok := got[name]
		if !ok {
			t.Fatalf("Fig5 has no series %q", name)
		}
		direct, err := RunPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Seconds != direct.Seconds || res.AvgCPU != direct.AvgCPU || res.ReadBytes != cfg.ReadBytes {
			t.Errorf("%s: Fig5 %v s / %v cpu, the literal config %v s / %v cpu",
				name, res.Seconds, res.AvgCPU, direct.Seconds, direct.AvgCPU)
		}
	}
}

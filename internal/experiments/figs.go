package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"persona"
	"persona/internal/agd"
	"persona/internal/align/bwa"
	"persona/internal/genome"
	"persona/internal/perfmodel"
	"persona/internal/reads"
	"persona/internal/simulate"
	"persona/internal/tco"
)

// RunFig5 produces the Fig. 5 CPU-utilization traces at paper scale.
func RunFig5(w io.Writer) (map[string]simulate.PipelineResult, error) {
	traces, err := simulate.Fig5(simulate.DefaultPaperParams())
	if err != nil {
		return nil, err
	}
	section(w, "Figure 5 (paper scale, modeled): CPU utilization")
	for _, name := range []string{"snap-singledisk", "persona-singledisk", "snap-raid0", "persona-raid0"} {
		tr := traces[name]
		fmt.Fprintf(w, "%-20s total %6.0f s   avg CPU %5.1f%%\n", name, tr.Seconds, tr.AvgCPU*100)
	}
	// Render a coarse sparkline of the first minutes of the single-disk
	// traces so the cyclical pattern is visible in text output.
	for _, name := range []string{"snap-singledisk", "persona-singledisk"} {
		tr := traces[name]
		fmt.Fprintf(w, "%-20s ", name)
		for i := 0; i < len(tr.Trace) && i < 100; i += 2 {
			fmt.Fprint(w, sparkChar(tr.Trace[i].CPU))
		}
		fmt.Fprintln(w, "  (first 200 s, 1 char = 2 s)")
	}
	fmt.Fprintln(w, "paper: SNAP single-disk shows cyclical stalls from buffer-cache writeback; Persona stays CPU bound")
	return traces, nil
}

func sparkChar(v float64) string {
	levels := []string{"_", "▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"}
	i := int(v * float64(len(levels)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(levels) {
		i = len(levels) - 1
	}
	return levels[i]
}

// RunFig6 prints the thread-scaling series at paper scale.
func RunFig6(w io.Writer) []simulate.Fig6Point {
	points := simulate.Fig6(simulate.DefaultPaperParams())
	section(w, "Figure 6 (paper scale, modeled): alignment rate vs threads (Mbases/s)")
	fmt.Fprintf(w, "%7s %10s %12s %10s %12s\n", "threads", "SNAP", "PersonaSNAP", "BWA", "PersonaBWA")
	for _, p := range points {
		if p.Threads%4 != 0 && p.Threads != 1 && p.Threads != 47 {
			continue
		}
		fmt.Fprintf(w, "%7d %10.1f %12.1f %10.1f %12.1f\n",
			p.Threads, p.SNAP/1e6, p.PersonaSNAP/1e6, p.BWA/1e6, p.PersonaBWA/1e6)
	}
	fmt.Fprintln(w, "paper: near-linear to 24, +32% per hyperthread, SNAP drops at 48, BWA flattens past 24")
	return points
}

// Fig6MeasuredPoint is one real thread-sweep sample.
type Fig6MeasuredPoint struct {
	Threads     int
	BasesPerSec float64
}

// RunFig6Measured sweeps executor threads 1..maxThreads with the real
// pipeline on a small dataset.
func RunFig6Measured(ctx context.Context, w io.Writer, sc Scale, maxThreads int) ([]Fig6MeasuredPoint, error) {
	var out []Fig6MeasuredPoint
	section(w, "Figure 6 (measured): real executor-thread sweep")
	fmt.Fprintf(w, "workload: %s\n", sc)
	for t := 1; t <= maxThreads; t++ {
		store := agd.NewMemStore()
		f, err := sc.fixture(store, "ds", false)
		if err != nil {
			return nil, err
		}
		report, _, err := persona.Align(ctx, store, "ds", f.Index, persona.AlignOptions{ExecutorThreads: t})
		if err != nil {
			return nil, err
		}
		out = append(out, Fig6MeasuredPoint{Threads: t, BasesPerSec: report.BasesPerSec})
		fmt.Fprintf(w, "%7d threads  %10.2f Mbases/s\n", t, report.BasesPerSec/1e6)
	}
	return out, nil
}

// RunFig7 produces the cluster-scaling series at paper scale.
func RunFig7(w io.Writer) ([]simulate.Fig7Point, error) {
	counts := []int{1, 2, 4, 8, 16, 24, 32, 40, 48, 56, 60, 64, 72, 80, 90, 100}
	points, err := simulate.Fig7(simulate.DefaultPaperParams(), counts)
	if err != nil {
		return nil, err
	}
	section(w, "Figure 7 (paper scale, modeled): cluster throughput")
	fmt.Fprintf(w, "%7s %16s %12s\n", "nodes", "Gbases/s", "genome (s)")
	for _, p := range points {
		fmt.Fprintf(w, "%7d %16.3f %12.1f\n", p.Nodes, p.BasesPerSec/1e9, p.Seconds)
	}
	for _, p := range points {
		if p.Nodes == 32 {
			fmt.Fprintf(w, "32-node headline: %.3f Gbases/s, %.1f s/genome (paper: 1.353 Gbases/s, 16.7 s)\n",
				p.BasesPerSec/1e9, p.Seconds)
		}
	}
	fmt.Fprintln(w, "paper: linear to 32 nodes (measured) and ~60 nodes (simulated); write-limited beyond")
	return points, nil
}

// RunTable3 prints the TCO analysis.
func RunTable3(w io.Writer) (tco.Report, error) {
	r, err := tco.Default().Evaluate()
	if err != nil {
		return r, err
	}
	section(w, "Table 3: cluster TCO and alignment costs")
	fmt.Fprintf(w, "%-16s %10s %6s %12s\n", "Item", "Unit cost", "Units", "Total")
	for _, it := range r.Items {
		fmt.Fprintf(w, "%-16s $%9.0f %6d $%11.0f\n", it.Item, it.UnitCost, it.Units, it.Total)
	}
	fmt.Fprintf(w, "%-16s %17s $%11.0f   (paper: $613K)\n", "Total", "", r.HardwareTotal)
	fmt.Fprintf(w, "%-16s %17s $%11.0f   (paper: $943K)\n", "TCO(5yr)", "", r.TCO5yr)
	fmt.Fprintf(w, "Cost/Alignment (100%% util): %.2f¢   (paper: 6.07¢)\n", r.CostPerAlignment*100)
	fmt.Fprintf(w, "Single server: %.0f alignments/day at %.2f¢   (paper: ~144/day, 4.1¢)\n",
		r.SingleServerAlignmentsPerDay, r.SingleServerCostPerAlignment*100)
	fmt.Fprintf(w, "Storage: %.0f genomes capacity, $%.2f/genome   (paper: ~6000, $8.83)\n",
		r.GenomesStorable, r.StoragePerGenome)
	fmt.Fprintf(w, "Glacier 5yr/genome: $%.2f   (paper: $6.72)\n", r.GlacierPerGenome5yr)
	return r, nil
}

// Fig8Result bundles the aligner profiles with the SPEC references.
type Fig8Result struct {
	Profiles []perfmodel.Breakdown
	SPEC     []perfmodel.Breakdown
}

// RunFig8 runs both aligners on the scaled workload, collects their
// instrumented op mixes, and prints the top-down comparison of Fig. 8.
//
// The Fig. 8 workload uses a repeat-rich reference (hg19 is roughly 45%
// repetitive; the default synthetic config's 5% would starve SNAP of the
// candidate-verification work that dominates its real profile).
func RunFig8(ctx context.Context, w io.Writer, sc Scale) (*Fig8Result, error) {
	cfg := genome.DefaultSyntheticConfig(sc.GenomeSize, sc.Seed)
	cfg.RepeatFraction = 0.45
	g, err := genome.Synthesize(cfg)
	if err != nil {
		return nil, err
	}
	sim, err := reads.NewSimulator(g, reads.SimConfig{
		Seed: sc.Seed + 1, N: sc.NumReads, ReadLen: sc.ReadLen, ErrorRate: 0.003,
	})
	if err != nil {
		return nil, err
	}
	rs, _ := sim.All()
	snapIdx, err := buildSnapIndex(g)
	if err != nil {
		return nil, err
	}
	snapAligner := newSnapAligner(snapIdx)
	for i := range rs {
		snapAligner.AlignRead(rs[i].Bases)
	}
	ss := snapAligner.Stats()
	snapMix := perfmodel.SNAPMix(ss.Reads, ss.SeedLookups, ss.LVCells, ss.BytesCompared)
	// A megabase-scale synthetic reference cannot reproduce hg19's candidate
	// multiplicity (seed space 4^16 dwarfs it), so the measured mix is
	// extrapolated to paper scale: per-verification costs stay as measured,
	// verifications per read rise to the hg19 mean. See perfmodel docs.
	measuredVerifies := float64(ss.CandidatesxLV) / float64(ss.Reads)
	snapMix = perfmodel.ExtrapolateSNAPToHG19(snapMix, measuredVerifies)

	fmIdx, err := bwa.NewFMIndex(g)
	if err != nil {
		return nil, err
	}
	bwaAligner := bwa.NewAligner(fmIdx, g)
	for i := range rs {
		bwaAligner.AlignRead(rs[i].Bases)
	}
	bs := bwaAligner.Stats()
	bwaMix := perfmodel.BWAMix(bs.Reads, bs.FMProbes, bs.SWCells)

	res := &Fig8Result{SPEC: perfmodel.SPECReferences()}
	for _, ht := range []bool{false, true} {
		suffix := ""
		if ht {
			suffix = "+HT"
		}
		res.Profiles = append(res.Profiles,
			perfmodel.Profile("snap"+suffix, snapMix, ht),
			perfmodel.Profile("bwa"+suffix, bwaMix, ht),
		)
	}

	section(w, "Figure 8: workload top-down analysis (instrumented op mixes)")
	fmt.Fprintf(w, "workload: %s\n", sc)
	fmt.Fprintf(w, "%-18s %9s %9s %9s %9s %9s %9s\n", "workload", "retiring", "badspec", "frontend", "backend", "core", "memory")
	for _, b := range append(res.Profiles, res.SPEC...) {
		fmt.Fprintf(w, "%-18s %8.1f%% %8.1f%% %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n",
			b.Name, b.Retiring*100, b.BadSpeculation*100, b.FrontendBound*100,
			b.BackendBound*100, b.CoreBound*100, b.MemoryBound*100)
	}
	fmt.Fprintln(w, "paper: both aligners backend bound; SNAP stalls in the core, BWA in memory; HT raises memory pressure")
	return res, nil
}

// ConversionResult holds the §5.7 conversion throughputs, and the byte and
// record counts behind them: unlike the rates, the counts repeat exactly.
type ConversionResult struct {
	Scale         Scale
	ImportMBps    float64
	BAMExportMBps float64
	// FASTQBytes in and ImportedRecords out of the import; ExportedRecords
	// in and BAMBytes out of the export (of the scale's reads, aligned).
	FASTQBytes, BAMBytes             int64
	ImportedRecords, ExportedRecords uint64
}

// RunConversion measures FASTQ→AGD import and AGD→BAM export throughput.
func RunConversion(ctx context.Context, w io.Writer, sc Scale) (*ConversionResult, error) {
	g, rs, err := sc.simulatedReads()
	if err != nil {
		return nil, err
	}
	fq, err := fastqText(rs)
	if err != nil {
		return nil, err
	}
	res := &ConversionResult{Scale: sc, FASTQBytes: int64(len(fq))}

	store := agd.NewMemStore()
	start := time.Now()
	if _, res.ImportedRecords, err = persona.ImportFASTQ(ctx, store, "conv", strings.NewReader(fq), agd.RefSeqsFromGenome(g), sc.ChunkSize); err != nil {
		return nil, err
	}
	res.ImportMBps = float64(res.FASTQBytes) / 1e6 / time.Since(start).Seconds()

	// Export needs an aligned dataset.
	store2 := agd.NewMemStore()
	if _, err := sc.fixture(store2, "ds", true); err != nil {
		return nil, err
	}
	cw := &discardCounter{}
	start = time.Now()
	if res.ExportedRecords, err = persona.ExportBAM(ctx, store2, "ds", cw); err != nil {
		return nil, err
	}
	res.BAMBytes = cw.n
	res.BAMExportMBps = float64(res.BAMBytes) / 1e6 / time.Since(start).Seconds()

	section(w, "Conversion throughput (measured, §5.7)")
	fmt.Fprintf(w, "workload: %s\n", sc)
	fmt.Fprintf(w, "FASTQ import: %8.1f MB/s   %9d B in,  %7d records   (paper: 360 MB/s on 48 cores)\n", res.ImportMBps, res.FASTQBytes, res.ImportedRecords)
	fmt.Fprintf(w, "BAM export:   %8.1f MB/s   %9d B out, %7d records   (paper: 82 MB/s; import should stay faster than export)\n", res.BAMExportMBps, res.BAMBytes, res.ExportedRecords)
	return res, nil
}

type discardCounter struct{ n int64 }

func (d *discardCounter) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return len(p), nil
}

// Benchmarks mirroring the paper's evaluation: one bench per table/figure
// (wrapping internal/experiments, which persona-bench also uses) plus
// microbenchmarks of the core kernels. Absolute numbers are machine-local;
// PERF.md records the reference runs.
package persona_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"persona"
	"persona/internal/agd"
	"persona/internal/agdsort"
	"persona/internal/align"
	"persona/internal/align/bwa"
	"persona/internal/align/snap"
	"persona/internal/experiments"
	"persona/internal/formats/bam"
	"persona/internal/formats/bgzf"
	"persona/internal/formats/fastq"
	"persona/internal/formats/sam"
	"persona/internal/genome"
	"persona/internal/reads"
	"persona/internal/simulate"
	"persona/internal/storage"
	"persona/internal/tco"
	"persona/internal/testutil"
)

// benchScale keeps the measured benchmarks fast enough for -bench=. runs.
func benchScale() experiments.Scale {
	return experiments.Scale{GenomeSize: 200_000, NumReads: 2000, ReadLen: 101, ChunkSize: 250, DupFrac: 0.15, Seed: 4}
}

// --- Table 1: single-server alignment, SNAP row-oriented vs Persona AGD ---

func BenchmarkTable1_Modeled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.Table1(simulate.DefaultPaperParams()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_MeasuredPersonaAGD(b *testing.B) {
	store := agd.NewMemStore()
	f, err := testutil.BuildE(store, "ds", testutil.Config{
		GenomeSize: 200_000, NumReads: 2000, ReadLen: 101, ChunkSize: 250, Seed: 4, SkipAlign: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := agd.NewMemStore()
		if err := copyStore(store, fresh); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := persona.Align(context.Background(), fresh, "ds", f.Index, persona.AlignOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_ColdWarmCache measures the decoded-chunk cache on the
// Table 1 read→align workload at zero and object-store (25 ms) blob
// latency. cold flushes the session cache before every op, so each run
// pays full fetch+decode; warm pre-warms once and every measured op is
// served from the cache — at 25 ms that removes the storage tier entirely
// and the warm number should sit near the 0 ms compute floor.
func BenchmarkTable1_ColdWarmCache(b *testing.B) {
	store := agd.NewMemStore()
	f, err := testutil.BuildE(store, "ds", testutil.Config{
		GenomeSize: 200_000, NumReads: 2000, ReadLen: 101, ChunkSize: 250, Seed: 4, SkipAlign: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	runOnce := func(b *testing.B, sess *persona.Session) {
		if _, err := sess.Read("ds").
			Align(f.Index, persona.AlignOptions{}).
			ExportSAM(io.Discard).
			Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	for _, lat := range []time.Duration{0, 25 * time.Millisecond} {
		var bs storage.Store = agd.NewMemStore()
		if err := copyStore(store, bs.(agd.BlobStore)); err != nil {
			b.Fatal(err)
		}
		if lat > 0 {
			bs = storage.WithLatency(bs, lat)
		}
		for _, mode := range []string{"cold", "warm"} {
			b.Run(fmt.Sprintf("latency=%s/%s", lat, mode), func(b *testing.B) {
				sess := persona.NewSession(bs, persona.SessionOptions{})
				defer sess.Close()
				if mode == "warm" {
					runOnce(b, sess)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "cold" {
						b.StopTimer()
						sess.FlushCache()
						b.StartTimer()
					}
					runOnce(b, sess)
				}
			})
		}
	}
}

func copyStore(src, dst agd.BlobStore, prefixes ...string) error {
	names, err := src.List("")
	if err != nil {
		return err
	}
	for _, n := range names {
		blob, err := src.Get(n)
		if err != nil {
			return err
		}
		if err := dst.Put(n, blob); err != nil {
			return err
		}
	}
	return nil
}

// --- Table 2: sorting ---

// BenchmarkTable2_Sorts measures Persona's AGD external merge sort itself:
// the aligned fixture (SNAP index build + alignment) is constructed once
// outside the measured region, so ns/op and allocs/op track the sort path,
// not the harness. The full tool comparison against the samtools/Picard
// baselines remains experiments.RunTable2 (persona-bench table2).
func BenchmarkTable2_Sorts(b *testing.B) {
	sc := benchScale()
	store := agd.NewMemStore()
	_, err := testutil.BuildE(store, "ds", testutil.Config{
		GenomeSize: sc.GenomeSize, NumReads: sc.NumReads, ReadLen: sc.ReadLen,
		ChunkSize: sc.ChunkSize, DupFrac: sc.DupFrac, Seed: sc.Seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, by := range []agdsort.Key{agdsort.ByLocation, agdsort.ByMetadata} {
		b.Run("by="+by.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := persona.Sort(context.Background(), store, "ds", by, "sorted"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 3: TCO model ---

func BenchmarkTable3_TCO(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tco.Default().Evaluate(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 5: CPU utilization traces ---

func BenchmarkFig5_UtilizationTraces(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.Fig5(simulate.DefaultPaperParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 6: thread scaling ---

func BenchmarkFig6_Model(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		simulate.Fig6(simulate.DefaultPaperParams())
	}
}

func BenchmarkFig6_MeasuredThreadSweep(b *testing.B) {
	sc := benchScale()
	sc.NumReads = 800
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig6Measured(context.Background(), io.Discard, sc, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 7: cluster scaling ---

func BenchmarkFig7_DES(b *testing.B) {
	counts := []int{1, 8, 32, 60, 100}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.Fig7(simulate.DefaultPaperParams(), counts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7_MeasuredCluster(b *testing.B) {
	sc := benchScale()
	sc.NumReads = 800
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig7Measured(context.Background(), io.Discard, sc, []int{2}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 8: workload analysis ---

func BenchmarkFig8_Profiles(b *testing.B) {
	sc := benchScale()
	sc.NumReads = 500
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8(context.Background(), io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §5.6 duplicate marking and §5.7 conversion ---

func BenchmarkDupmark_Comparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunDupmark(context.Background(), io.Discard, benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConversion_ImportExport measures the conversion paths
// themselves (the §5.7 workloads): FASTQ→AGD import plus the SAM and BAM
// exporters, with the FASTQ text and the aligned dataset built once outside
// the measured region. The throughput experiment stays
// experiments.RunConversion (persona-bench conversion).
func BenchmarkConversion_ImportExport(b *testing.B) {
	sc := benchScale()
	g, err := genome.Synthesize(genome.DefaultSyntheticConfig(sc.GenomeSize, sc.Seed))
	if err != nil {
		b.Fatal(err)
	}
	sim, err := reads.NewSimulator(g, reads.SimConfig{
		Seed: sc.Seed + 1, N: sc.NumReads, ReadLen: sc.ReadLen,
		ErrorRate: 0.003, DuplicateFraction: sc.DupFrac,
	})
	if err != nil {
		b.Fatal(err)
	}
	rs, _ := sim.All()
	var fq bytes.Buffer
	fw := fastq.NewWriter(&fq)
	for i := range rs {
		if err := fw.Write(&rs[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		b.Fatal(err)
	}
	store := agd.NewMemStore()
	_, err = testutil.BuildE(store, "ds", testutil.Config{
		GenomeSize: sc.GenomeSize, NumReads: sc.NumReads, ReadLen: sc.ReadLen,
		ChunkSize: sc.ChunkSize, DupFrac: sc.DupFrac, Seed: sc.Seed,
	})
	if err != nil {
		b.Fatal(err)
	}

	b.Run("fastq_import", func(b *testing.B) {
		b.SetBytes(int64(fq.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst := agd.NewMemStore()
			if _, _, err := persona.ImportFASTQ(context.Background(), dst, "conv", bytes.NewReader(fq.Bytes()), nil, sc.ChunkSize); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sam_export", func(b *testing.B) {
		cw := &countWriter{}
		if _, err := persona.ExportSAM(context.Background(), store, "ds", cw); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(cw.n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := persona.ExportSAM(context.Background(), store, "ds", io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bam_export", func(b *testing.B) {
		cw := &countWriter{}
		if _, err := persona.ExportBAM(context.Background(), store, "ds", cw); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(cw.n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := persona.ExportBAM(context.Background(), store, "ds", io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// --- Kernel microbenchmarks ---

func benchGenome(b *testing.B, size int) *genome.Genome {
	b.Helper()
	g, err := genome.Synthesize(genome.DefaultSyntheticConfig(size, 9))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkKernel_LandauVishkin(b *testing.B) {
	g := benchGenome(b, 50_000)
	read, _ := g.Slice(1000, 101)
	window, _ := g.Slice(1000, 113)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		align.LandauVishkin(read, window, 12)
	}
}

func BenchmarkKernel_SmithWaterman(b *testing.B) {
	g := benchGenome(b, 50_000)
	read, _ := g.Slice(2000, 101)
	window, _ := g.Slice(1984, 133)
	sc := align.DefaultScoring()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		align.SmithWaterman(read, window, sc)
	}
}

// BenchmarkKernel_SNAPAlignRead is sized like the repo benchmark's wgs
// workloads (bench/: 1 Mb genome, 20 k distinct reads): the seed table is
// then 32 MB and the reads touch most of it, so the benchmark sees the
// table's cache misses the way a pipeline run does. A 400 kb genome cycling
// 256 reads keeps every slot it touches cached and cannot. It times
// AlignPacked over the reads' packed bases records, the path the alignment
// stage runs.
func BenchmarkKernel_SNAPAlignRead(b *testing.B) {
	g := benchGenome(b, 1_000_000)
	idx, err := snap.BuildIndex(g, snap.IndexConfig{SeedLen: 16})
	if err != nil {
		b.Fatal(err)
	}
	a := snap.NewAligner(idx, snap.Config{MaxDist: 10})
	sim, err := reads.NewSimulator(g, reads.SimConfig{Seed: 10, N: 20_000, ReadLen: 101, ErrorRate: 0.003})
	if err != nil {
		b.Fatal(err)
	}
	rs, _ := sim.All()
	recs := make([][]byte, len(rs))
	for i := range rs {
		recs[i] = agd.PackBases(nil, rs[i].Bases)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.AlignPacked(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(101)
}

// BenchmarkKernel_SNAPBuildIndex builds the index of a 200 kb genome: small
// enough for CI's -benchtime 100x smoke, large enough (8 MB of slots) that
// the count and fill passes miss the cache like a real build.
func BenchmarkKernel_SNAPBuildIndex(b *testing.B) {
	g := benchGenome(b, 200_000)
	b.ReportAllocs()
	b.SetBytes(g.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.BuildIndex(g, snap.IndexConfig{SeedLen: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernel_BWAAlignRead(b *testing.B) {
	g := benchGenome(b, 400_000)
	idx, err := bwa.NewFMIndex(g)
	if err != nil {
		b.Fatal(err)
	}
	a := bwa.NewAligner(idx, g)
	sim, err := reads.NewSimulator(g, reads.SimConfig{Seed: 11, N: 256, ReadLen: 101, ErrorRate: 0.003})
	if err != nil {
		b.Fatal(err)
	}
	rs, _ := sim.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.AlignRead(rs[i%len(rs)].Bases)
	}
	b.SetBytes(101)
}

func BenchmarkKernel_BaseCompaction(b *testing.B) {
	g := benchGenome(b, 10_000)
	bases, _ := g.Slice(0, 101)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = agd.PackBases(buf[:0], bases)
	}
	b.SetBytes(101)
}

// BenchmarkKernel_ExpandBases decodes one 101 bp packed record per
// iteration into a reused buffer, as the align and export stages do.
func BenchmarkKernel_ExpandBases(b *testing.B) {
	g := benchGenome(b, 10_000)
	bases, _ := g.Slice(0, 101)
	rec := agd.PackBases(nil, bases)
	var buf []byte
	b.ReportAllocs()
	b.SetBytes(101)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = agd.UnpackBases(buf[:0], rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernel_ChunkEncodeDecode(b *testing.B) {
	g := benchGenome(b, 200_000)
	builder := agd.NewChunkBuilder(agd.TypePackedBases, 0)
	for pos := int64(0); pos < 100_000; pos += 101 {
		bases, _ := g.Slice(pos, 101)
		builder.AppendBases(bases)
	}
	chunk := builder.Chunk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := agd.EncodeChunk(chunk, agd.CompressGzip)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := agd.DecodeChunk(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernel_ChunkEncodeDecodePooled is the codec on the pipeline's
// steady-state path: encode appends into a recycled blob and decode reuses
// one chunk's backing arrays, so the loop runs allocation-free apart from
// gzip-internal pooling.
func BenchmarkKernel_ChunkEncodeDecodePooled(b *testing.B) {
	g := benchGenome(b, 200_000)
	builder := agd.NewChunkBuilder(agd.TypePackedBases, 0)
	for pos := int64(0); pos < 100_000; pos += 101 {
		bases, _ := g.Slice(pos, 101)
		builder.AppendBases(bases)
	}
	chunk := builder.Chunk()
	var blob []byte
	var dec agd.Chunk
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		blob, err = agd.EncodeChunkAppend(blob[:0], chunk, agd.CompressGzip)
		if err != nil {
			b.Fatal(err)
		}
		if err := agd.DecodeChunkInto(&dec, blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernel_FASTQParse(b *testing.B) {
	g := benchGenome(b, 50_000)
	sim, err := reads.NewSimulator(g, reads.SimConfig{Seed: 12, N: 1000, ReadLen: 101})
	if err != nil {
		b.Fatal(err)
	}
	rs, _ := sim.All()
	var buf bytes.Buffer
	w := fastq.NewWriter(&buf)
	for i := range rs {
		if err := w.Write(&rs[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	text := buf.String()
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := fastq.NewScanner(strings.NewReader(text))
		n := 0
		for sc.Scan() {
			n++
		}
		if sc.Err() != nil || n != len(rs) {
			b.Fatalf("parsed %d, err %v", n, sc.Err())
		}
	}
}

// BenchmarkKernel_RecordArenaAppend is the shared arena's append path: the
// per-record cost every staging/writer hot loop now pays instead of a heap
// allocation.
func BenchmarkKernel_RecordArenaAppend(b *testing.B) {
	const perRound = 1024
	a := agd.NewRecordArena(perRound*64, perRound)
	rec := bytes.Repeat([]byte("r"), 64)
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a.Len() >= perRound {
			a.Reset()
		}
		a.Append(rec)
	}
}

// BenchmarkKernel_ResultViewDecode is the zero-copy results decode used by
// sort key extraction, export, filtering and duplicate marking.
func BenchmarkKernel_ResultViewDecode(b *testing.B) {
	r := agd.Result{Location: 123456, MateLocation: -1, TemplateLen: 0, Score: 3,
		MapQ: 60, Flags: agd.FlagReverse, Cigar: "101M"}
	enc := agd.EncodeResult(nil, &r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agd.DecodeResultView(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernel_SAMLineWrite is the append-based SAM record renderer on
// the export hot path (one aligned record per iteration).
func BenchmarkKernel_SAMLineWrite(b *testing.B) {
	refs := []agd.RefSeq{{Name: "chr1", Length: 1 << 20}}
	refmap := sam.NewRefMap(refs)
	w, err := sam.NewWriter(io.Discard, refs, "coordinate")
	if err != nil {
		b.Fatal(err)
	}
	name := []byte("sim.12345")
	seq := bytes.Repeat([]byte("ACGT"), 25)
	qual := bytes.Repeat([]byte("I"), 100)
	v := agd.ResultView{Location: 99_000, MateLocation: -1, MapQ: 60, Cigar: []byte("100M")}
	b.SetBytes(int64(len(seq)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteView(name, seq, qual, &v, refmap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernel_BAMWriteView is the BAM record encoder on the export hot
// path (one aligned 100 bp record per iteration, BGZF included).
func BenchmarkKernel_BAMWriteView(b *testing.B) {
	refs := []agd.RefSeq{{Name: "chr1", Length: 1 << 20}}
	refmap := sam.NewRefMap(refs)
	w, err := bam.NewWriter(bgzf.NewWriter(io.Discard, nil), refs, "coordinate")
	if err != nil {
		b.Fatal(err)
	}
	name := []byte("sim.12345")
	seq := bytes.Repeat([]byte("ACGT"), 25)
	qual := bytes.Repeat([]byte("I"), 100)
	v := agd.ResultView{Location: 99_000, MateLocation: -1, MapQ: 60, Cigar: []byte("100M")}
	b.SetBytes(int64(len(seq)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteView(name, seq, qual, &v, refmap); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (the paper's §6 design choices) ---

func BenchmarkAblation_ChunkSize(b *testing.B) {
	sc := benchScale()
	sc.NumReads = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunChunkSizeAblation(context.Background(), io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_Compression(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunCompressionAblation(context.Background(), io.Discard, benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_Subchunks(b *testing.B) {
	sc := benchScale()
	sc.NumReads = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSubchunkAblation(context.Background(), io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline_WGS measures the WGS preprocessing chain
// align → sort → markdup → export BAM two ways over identical reads:
// "staged" uses the one-shot free functions (align writes results chunks,
// sort materializes a sorted dataset, markdup rewrites it, export re-reads
// it); "fused" runs the same stages as one Session/Pipeline graph, where
// chunks stream stage-to-stage and nothing is written to the store — under
// the pumped scheduler (bounded edges, stages overlapped);
// "fused-pull" is the same graph on the serial pull scheduler, isolating
// what the overlap buys; "fused-cold" is "fused" with the process-wide pools
// of stage memory emptied before each op (two collections outside the
// timer), what a process's first run pays. The BAM bytes are identical
// (asserted in TestPipelineMatchesStagedSAM and
// TestPipelinePumpedMatchesSerial); the staged/fused delta is the store round
// trips. Dataset setup is outside the timer.
func BenchmarkPipeline_WGS(b *testing.B) {
	sc := benchScale()
	cfg := testutil.Config{
		GenomeSize: sc.GenomeSize, NumReads: sc.NumReads, ReadLen: sc.ReadLen,
		ChunkSize: sc.ChunkSize, DupFrac: sc.DupFrac, Seed: sc.Seed, SkipAlign: true,
	}
	seedStore := agd.NewMemStore()
	f, err := testutil.BuildE(seedStore, "ds", cfg)
	if err != nil {
		b.Fatal(err)
	}
	idx := f.Index
	ctx := context.Background()

	// freshStore clones the unaligned dataset into a new store per
	// iteration (both paths mutate or require an unaligned input).
	freshStore := func(b *testing.B) persona.Store {
		names, err := seedStore.List("")
		if err != nil {
			b.Fatal(err)
		}
		dst := agd.NewMemStore()
		for _, name := range names {
			blob, err := seedStore.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			if err := dst.Put(name, blob); err != nil {
				b.Fatal(err)
			}
		}
		return dst
	}

	b.Run("staged", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			store := freshStore(b)
			b.StartTimer()
			if _, _, err := persona.Align(ctx, store, "ds", idx, persona.AlignOptions{}); err != nil {
				b.Fatal(err)
			}
			if _, err := persona.Sort(ctx, store, "ds", persona.ByLocation, "ds.sorted"); err != nil {
				b.Fatal(err)
			}
			if _, err := persona.MarkDuplicates(ctx, store, "ds.sorted"); err != nil {
				b.Fatal(err)
			}
			if _, err := persona.ExportBAM(ctx, store, "ds.sorted", io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	runFused := func(b *testing.B, serial, cold bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if cold {
				// A pooled object outlives one collection, not two.
				runtime.GC()
				runtime.GC()
			}
			store := freshStore(b)
			sess := persona.NewSession(store, persona.SessionOptions{})
			b.StartTimer()
			p := sess.Read("ds").
				Align(idx, persona.AlignOptions{}).
				Sort(persona.ByLocation).
				MarkDuplicates().
				ExportBAM(io.Discard)
			if serial {
				p = p.Serial()
			}
			if _, err := p.Run(ctx); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			sess.Close()
			b.StartTimer()
		}
	}
	b.Run("fused", func(b *testing.B) { runFused(b, false, false) })
	b.Run("fused-pull", func(b *testing.B) { runFused(b, true, false) })
	b.Run("fused-cold", func(b *testing.B) { runFused(b, false, true) })
}

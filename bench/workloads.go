package main

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"os"
	"runtime"
	"time"

	"persona"
	"persona/internal/agd"
	"persona/internal/agdsort"
	"persona/internal/filter"
	"persona/internal/storage"
)

// tracedReps is how many traced reps follow a workload's timed reps.
const tracedReps = 2

// instance is one workload, set up from a seed and ready to measure.
type instance interface {
	// input states the sizes the workload ran at.
	input() sizes
	// rep runs one timed rep with tracing off and checks its outputs.
	rep(ctx context.Context) (repOutcome, error)
	// layers runs the traced reps and the isolated per-layer measurements
	// and returns the per-layer metrics they yield. m holds the timed reps,
	// which the ratios against untraced walls are taken from.
	layers(ctx context.Context, tr *tracer, m *measurement) (map[string]float64, error)
	// close releases what set-up acquired.
	close()
}

// workload names a set of inputs the benchmark runs and why.
type workload struct {
	name, why string
	setup     func(ctx context.Context, e *env, seed int64) (instance, error)
}

// The sizes are a third of the issue's, which were for two processors, one
// set-up and a 2.5-minute command: the driver gives a run about twenty
// seconds, three set-ups included, on one processor. A rep takes 0.4–1 s and
// a set-up 1.5–3 s.
var (
	wgsSizes     = sizes{GenomeBP: 1_000_000, Reads: 20_000, Chunk: 1_000, DupFrac: 0.12}
	convertSizes = sizes{GenomeBP: 1_000_000, Reads: 40_000, Chunk: 2_000, DupFrac: 0.12}
	scanSizes    = sizes{GenomeBP: 1_000_000, Reads: 40_000, Chunk: 1_000, DupFrac: 0.12}
	serviceSizes = sizes{GenomeBP: 1_000_000, Reads: 2_000, Chunk: 500, DupFrac: 0.12}
)

// scanLatency is the simulated per-request latency of scan_remote's store.
const scanLatency = 25 * time.Millisecond

var workloads = []workload{
	{
		name: "wgs_fused",
		why: "the paper's headline workflow, read→align→sort→markdup→BAM as one pumped pipeline on a MemStore: " +
			"kernel and BGZF bound, storage and cache idle, so a storage or cache change must not move it",
		setup: setupWGS(wgsFused),
	},
	{
		name: "wgs_staged_dir",
		why: "the same stages as one-shot free functions on a DirStore: every intermediate dataset is encoded, " +
			"fsync'd and re-read, through the legacy engines; its BAM equals wgs_fused's",
		setup: setupWGS(wgsStagedDir),
	},
	{
		name: "convert_sort",
		why: "no aligner: FASTQ import, two sorts, markdup, filter, SAM render and the chunk codec on the serial " +
			"pull driver, so a sort or format gain shows undiluted and a kernel gain predicts no change",
		setup: setupConvert,
	},
	{
		name: "scan_remote",
		why: "a cold then a warm filter scan over a 25 ms-latency store behind the retry layer: prefetch and " +
			"batch reads bound the cold pass, the chunk cache the warm one; no aligner, no sort",
		setup: setupScan,
	},
	{
		name: "dist_n2",
		why: "wgs_fused's input and graph with .Distributed(2): the only workload through shuffle, " +
			"cluster.RunPipeline and the TCP phase server; on one processor it prices the shuffle, not a second node",
		setup: setupWGS(wgsDist),
	},
	{
		name: "service_mix",
		why: "closed loop, 2 clients, rounds of small jobs through the HTTP job server on a DirStore: journal " +
			"fsyncs, admission, fair queue, manifest opens and warm-cache hits dominate, not the pipeline",
		setup: setupService,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- wgs_fused, wgs_staged_dir, dist_n2 ------------------------------------

type wgsMode int

const (
	wgsFused wgsMode = iota
	wgsStagedDir
	wgsDist
)

// wgs is the whole-genome preprocessing graph over an unaligned dataset, run
// fused, staged on disk, or distributed. All three must produce the same BAM.
type wgs struct {
	mode wgsMode
	e    *env
	fx   *fixture
	gold golden
}

func setupWGS(mode wgsMode) func(context.Context, *env, int64) (instance, error) {
	return func(ctx context.Context, e *env, seed int64) (instance, error) {
		fx, err := buildFixture(seed, wgsSizes, false)
		if err != nil {
			return nil, err
		}
		// Golden: the staged free-function sequence on a plain MemStore.
		ref, err := cloneMem(fx.store)
		if err != nil {
			return nil, err
		}
		var bam bytes.Buffer
		n, _, err := stagedBAM(ctx, ref, fx.index, &bam, plainStep)
		if err != nil {
			return nil, fmt.Errorf("golden: %w", err)
		}
		w := &wgs{mode: mode, e: e, fx: fx, gold: goldenOf(bam.Bytes(), n)}
		if _, err := w.rep(ctx); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return w, nil
	}
}

func (w *wgs) input() sizes { return w.fx.sizes }
func (w *wgs) close()       {}

// sinkBuffer preallocates room for the golden's size, so the sink never
// grows its buffer inside the timer.
func sinkBuffer(g golden) *bytes.Buffer {
	return bytes.NewBuffer(make([]byte, 0, g.size+g.size/8+4096))
}

// pipeline builds the fused graph on a session.
func (w *wgs) pipeline(sess *persona.Session, dst *bytes.Buffer, nodes int, serial bool) *persona.Pipeline {
	p := sess.Read(dataset).
		Align(w.fx.index, persona.AlignOptions{}).
		Sort(persona.ByLocation).
		MarkDuplicates().
		ExportBAM(dst)
	if serial {
		p.Serial()
	}
	if nodes > 0 {
		p.Distributed(nodes)
	}
	return p
}

// rep runs one timed rep in the workload's own mode.
func (w *wgs) rep(ctx context.Context) (repOutcome, error) {
	if w.mode == wgsStagedDir {
		return w.stagedRep(ctx)
	}
	nodes := 0
	if w.mode == wgsDist {
		nodes = 2
	}
	return w.fusedRep(ctx, nodes, false)
}

func (w *wgs) fusedRep(ctx context.Context, nodes int, serial bool) (repOutcome, error) {
	store, err := cloneMem(w.fx.store)
	if err != nil {
		return repOutcome{}, err
	}
	sess := persona.NewSession(store, persona.SessionOptions{})
	defer sess.Close()
	buf := sinkBuffer(w.gold)
	var report *persona.PipelineReport
	u, err := timed(func() error {
		var err error
		report, err = w.pipeline(sess, buf, nodes, serial).Run(ctx)
		return err
	})
	if err != nil {
		return repOutcome{}, err
	}
	if err := w.gold.check("bam", buf.Bytes(), report.Records); err != nil {
		return repOutcome{}, err
	}
	var t reportTotals
	t.add(report)
	return repOutcome{usage: u, records: report.Records, layer: t.metrics()}, nil
}

func (w *wgs) stagedRep(ctx context.Context) (repOutcome, error) {
	store, dir, err := w.e.dirClone(w.fx.store, "staged")
	if err != nil {
		return repOutcome{}, err
	}
	defer os.RemoveAll(dir)
	buf := sinkBuffer(w.gold)
	var n uint64
	var dups persona.DupStats
	u, err := timed(func() error {
		var err error
		n, dups, err = stagedBAM(ctx, store, w.fx.index, buf, plainStep)
		return err
	})
	if err != nil {
		return repOutcome{}, err
	}
	if err := w.gold.check("bam", buf.Bytes(), n); err != nil {
		return repOutcome{}, err
	}
	return repOutcome{usage: u, records: n, layer: map[string]float64{
		"markdup.dup_frac": ratio(float64(dups.Duplicates), float64(dups.Reads)),
	}}, nil
}

// tracedFused runs the graph as a pull chain over a tracing store.
func (w *wgs) tracedFused(ctx context.Context, tr *tracer) error {
	mem, err := cloneMem(w.fx.store)
	if err != nil {
		return err
	}
	ch := newChain(tr, newTraceStore(mem, tr))
	defer ch.close()
	buf := sinkBuffer(w.gold)
	root := tr.beginRep()
	src, err := ch.read(dataset)
	al, err := then(src, err, func(in *agd.GroupStream) (*agd.GroupStream, error) { return ch.align(in, w.fx.index) })
	so, err := then(al, err, func(in *agd.GroupStream) (*agd.GroupStream, error) { return ch.sort(ctx, in, agdsort.ByLocation) })
	md, err := then(so, err, ch.markdup)
	var n uint64
	if err == nil {
		n, err = ch.exportBAM(ctx, md, buf)
	}
	tr.end(root, int64(n), int64(buf.Len()))
	if err != nil {
		return err
	}
	return w.gold.check("traced bam", buf.Bytes(), n)
}

// tracedStaged runs the free functions over a tracing DirStore; each call is
// a span whose children are the store operations it made.
func (w *wgs) tracedStaged(ctx context.Context, tr *tracer) error {
	dir, dirPath, err := w.e.dirClone(w.fx.store, "staged-traced")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dirPath)
	buf := sinkBuffer(w.gold)
	root := tr.beginRep()
	n, _, err := stagedBAM(ctx, newTraceStore(dir, tr), w.fx.index, buf, tr.call)
	tr.end(root, int64(n), int64(buf.Len()))
	if err != nil {
		return err
	}
	return w.gold.check("traced bam", buf.Bytes(), n)
}

// tracedDist runs the distributed pipeline on a session over a tracing
// store: the graph is not re-assembled, the store spans are the trace.
func (w *wgs) tracedDist(ctx context.Context, tr *tracer) error {
	mem, err := cloneMem(w.fx.store)
	if err != nil {
		return err
	}
	sess := persona.NewSession(newTraceStore(mem, tr), persona.SessionOptions{})
	defer sess.Close()
	buf := sinkBuffer(w.gold)
	var report *persona.PipelineReport
	root := tr.beginRep()
	err = tr.call("persona", "run", func() error {
		var err error
		report, err = w.pipeline(sess, buf, 2, false).Run(ctx)
		return err
	})
	tr.end(root, 0, int64(buf.Len()))
	if err != nil {
		return err
	}
	return w.gold.check("traced bam", buf.Bytes(), report.Records)
}

// runTraced runs fn tracedReps times and analyzes each rep's spans.
func runTraced(tr *tracer, fn func() error) ([]tracedRep, error) {
	first := tr.rep + 1
	for i := 0; i < tracedReps; i++ {
		runtime.GC() // as before a timed rep: start from an empty heap
		if err := fn(); err != nil {
			return nil, fmt.Errorf("traced rep: %w", err)
		}
	}
	spans := tr.snapshot()
	reps := make([]tracedRep, 0, tracedReps)
	for rep := first; rep < first+tracedReps; rep++ {
		reps = append(reps, analyzeRep(spans, rep))
	}
	return reps, nil
}

// overhead is the traced wall's excess over the untraced wall of the same
// schedule, as a share of the latter.
func overhead(reps []tracedRep, untracedS float64) float64 {
	if untracedS == 0 {
		return 0
	}
	return (mean(reps, func(r tracedRep) float64 { return r.rootS }) - untracedS) / untracedS
}

func mbPerS(bytes int, seconds float64) float64 {
	return ratio(float64(bytes)/1e6, seconds)
}

func (w *wgs) layers(ctx context.Context, tr *tracer, m *measurement) (map[string]float64, error) {
	out := make(map[string]float64)
	records := float64(w.gold.records)
	untraced := median(m.repWalls())
	traced := w.tracedFused
	switch w.mode {
	case wgsStagedDir:
		traced = w.tracedStaged
	case wgsDist:
		traced = w.tracedDist
	}
	if w.mode == wgsFused {
		// One extra rep on the serial pull driver: what the default schedule
		// buys, and the untraced wall the pull chain's overhead is against.
		serial, err := w.fusedRep(ctx, 0, true)
		if err != nil {
			return nil, fmt.Errorf("serial rep: %w", err)
		}
		out["persona.serial_over_pumped"] = ratio(serial.usage.wall.Seconds(), untraced)
		untraced = serial.usage.wall.Seconds()
	}
	reps, err := runTraced(tr, func() error { return traced(ctx, tr) })
	if err != nil {
		return nil, err
	}
	maps.Copy(out, traceMetrics(reps, records))
	if self := out["bam.export_self_s"]; self > 0 {
		out["bam.export_mb_per_s"] = mbPerS(w.gold.size, self)
	}

	snap, err := snapMetrics(w.fx)
	if err != nil {
		return nil, err
	}
	maps.Copy(out, snap)
	if w.mode == wgsDist {
		// No pull chain: the layers are not separated, only the store is,
		// and a few store spans cost less than two reps' noise.
		delete(out, "trace.coverage")
		delete(out, "storage.self_s")
		fused, err := measureFused(ctx, w)
		if err != nil {
			return nil, err
		}
		out["cluster.wall_over_fused"] = ratio(median(m.repWalls()), fused)
		maps.Copy(out, clusterPhases(tr.snapshot()))
		cl, err := clusterMetrics(ctx, w.fx)
		if err != nil {
			return nil, err
		}
		maps.Copy(out, cl)
		return out, nil
	}
	out["trace.overhead_frac"] = overhead(reps, untraced)
	codec, err := codecMetrics(w.fx.store)
	if err != nil {
		return nil, err
	}
	maps.Copy(out, codec)
	if w.mode == wgsFused {
		out["agd.edge_handoff_ns"] = edgeHandoffNS()
	}
	return out, nil
}

// measureFused times a few single-node fused reps on dist_n2's own input,
// the base of cluster.wall_over_fused.
func measureFused(ctx context.Context, w *wgs) (float64, error) {
	var walls []float64
	for i := 0; i < 3; i++ {
		out, err := w.fusedRep(ctx, 0, false)
		if err != nil {
			return 0, fmt.Errorf("fused base rep: %w", err)
		}
		walls = append(walls, out.usage.wall.Seconds())
	}
	return median(walls), nil
}

// ---- convert_sort -----------------------------------------------------------

// convert is three serial pipelines over a pre-aligned dataset: FASTQ
// import, a metadata sort, and location sort → markdup → filter → SAM.
type convert struct {
	fx      *fixture
	fastq   []byte // the dataset's reads as FASTQ: the import's input
	samGold golden
}

func keepPred() filter.Predicate {
	return persona.FilterAnd(persona.FilterMappedOnly(), persona.FilterDropDuplicates())
}

func setupConvert(ctx context.Context, e *env, seed int64) (instance, error) {
	fx, err := buildFixture(seed, convertSizes, true)
	if err != nil {
		return nil, err
	}
	var fq bytes.Buffer
	if _, err := persona.ExportFASTQ(ctx, fx.store, dataset, &fq); err != nil {
		return nil, fmt.Errorf("fastq input: %w", err)
	}
	// Golden SAM: the staged free functions, every stage through the store.
	ref, err := cloneMem(fx.store)
	if err != nil {
		return nil, err
	}
	var sam bytes.Buffer
	if _, err = persona.Sort(ctx, ref, dataset, persona.ByLocation, "s"); err == nil {
		if _, err = persona.MarkDuplicates(ctx, ref, "s"); err == nil {
			_, _, err = persona.Filter(ctx, ref, "s", keepPred(), "f")
		}
	}
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	n, err := persona.ExportSAM(ctx, ref, "f", &sam)
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	c := &convert{fx: fx, fastq: fq.Bytes(), samGold: goldenOf(sam.Bytes(), n)}
	if _, err := c.rep(ctx); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return c, nil
}

func (c *convert) input() sizes { return c.fx.sizes }
func (c *convert) close()       {}

// records is what one rep delivers to its three sinks.
func (c *convert) records() uint64 { return 2*uint64(c.fx.sizes.Reads) + c.samGold.records }

// verify checks the three outputs after the timer has stopped.
func (c *convert) verify(ctx context.Context, store agd.BlobStore, sam []byte, samRecords uint64) error {
	var fq bytes.Buffer
	fq.Grow(len(c.fastq))
	if _, err := persona.ExportFASTQ(ctx, store, "imp", &fq); err != nil {
		return fmt.Errorf("re-export imported dataset: %w", err)
	}
	if !bytes.Equal(fq.Bytes(), c.fastq) {
		return fmt.Errorf("imported dataset re-exports to different FASTQ (%d bytes, input %d)", fq.Len(), len(c.fastq))
	}
	ds, err := agd.Open(store, "bymeta")
	if err != nil {
		return err
	}
	metas, err := ds.ReadAllColumn(agd.ColMetadata)
	if err != nil {
		return err
	}
	if len(metas) != c.fx.sizes.Reads {
		return fmt.Errorf("bymeta has %d records, input %d", len(metas), c.fx.sizes.Reads)
	}
	for i := 1; i < len(metas); i++ {
		if bytes.Compare(metas[i-1], metas[i]) > 0 {
			return fmt.Errorf("bymeta: record %d sorts before record %d", i, i-1)
		}
	}
	return c.samGold.check("sam", sam, samRecords)
}

func (c *convert) rep(ctx context.Context) (repOutcome, error) {
	store, err := cloneMem(c.fx.store)
	if err != nil {
		return repOutcome{}, err
	}
	sess := persona.NewSession(store, persona.SessionOptions{})
	defer sess.Close()
	refs := persona.RefSeqs(c.fx.genome)
	buf := sinkBuffer(c.samGold)
	var t reportTotals
	var samRecords uint64
	u, err := timed(func() error {
		r, err := sess.ImportFASTQ(bytes.NewReader(c.fastq), refs, c.fx.sizes.Chunk).Write("imp").Serial().Run(ctx)
		if err != nil {
			return err
		}
		t.add(r)
		r, err = sess.Read(dataset).Sort(persona.ByMetadata).Write("bymeta").Serial().Run(ctx)
		if err != nil {
			return err
		}
		t.add(r)
		r, err = sess.Read(dataset).Sort(persona.ByLocation).MarkDuplicates().Filter(keepPred()).ExportSAM(buf).Serial().Run(ctx)
		if err != nil {
			return err
		}
		t.add(r)
		samRecords = r.Records
		return nil
	})
	if err != nil {
		return repOutcome{}, err
	}
	if err := c.verify(ctx, store, buf.Bytes(), samRecords); err != nil {
		return repOutcome{}, err
	}
	return repOutcome{usage: u, records: c.records(), layer: t.metrics()}, nil
}

func (c *convert) traced(ctx context.Context, tr *tracer) error {
	mem, err := cloneMem(c.fx.store)
	if err != nil {
		return err
	}
	ch := newChain(tr, newTraceStore(mem, tr))
	defer ch.close()
	buf := sinkBuffer(c.samGold)
	root := tr.beginRep()
	n, err := func() (uint64, error) {
		imp, err := ch.importFASTQ(bytes.NewReader(c.fastq), persona.RefSeqs(c.fx.genome), c.fx.sizes.Chunk)
		if err != nil {
			return 0, err
		}
		if _, err := ch.write(ctx, imp, "imp"); err != nil {
			return 0, err
		}
		src, err := ch.read(dataset)
		so, err := then(src, err, func(in *agd.GroupStream) (*agd.GroupStream, error) { return ch.sort(ctx, in, agdsort.ByMetadata) })
		if err != nil {
			return 0, err
		}
		if _, err := ch.write(ctx, so, "bymeta"); err != nil {
			return 0, err
		}
		src, err = ch.read(dataset)
		so, err = then(src, err, func(in *agd.GroupStream) (*agd.GroupStream, error) { return ch.sort(ctx, in, agdsort.ByLocation) })
		md, err := then(so, err, ch.markdup)
		fl, err := then(md, err, func(in *agd.GroupStream) (*agd.GroupStream, error) { return ch.filter(in, keepPred()) })
		if err != nil {
			return 0, err
		}
		return ch.exportSAM(ctx, fl, buf)
	}()
	tr.end(root, int64(n), int64(buf.Len()))
	if err != nil {
		return err
	}
	return c.verify(ctx, mem, buf.Bytes(), n)
}

func (c *convert) layers(ctx context.Context, tr *tracer, m *measurement) (map[string]float64, error) {
	out := make(map[string]float64)
	reps, err := runTraced(tr, func() error { return c.traced(ctx, tr) })
	if err != nil {
		return nil, err
	}
	maps.Copy(out, traceMetrics(reps, float64(c.records())))
	// The timed reps already run on the serial pull driver.
	out["trace.overhead_frac"] = overhead(reps, median(m.repWalls()))
	out["fastq.import_mb_per_s"] = mbPerS(len(c.fastq), out["fastq.import_self_s"])
	out["sam.export_mb_per_s"] = mbPerS(c.samGold.size, out["sam.export_self_s"])
	codec, err := codecMetrics(c.fx.store)
	if err != nil {
		return nil, err
	}
	maps.Copy(out, codec)
	return out, nil
}

// ---- scan_remote ------------------------------------------------------------

// scan is a cold and then a warm filter pass, on one session, over a store
// with simulated request latency behind the retry layer.
type scan struct {
	fx      *fixture
	mapped  uint64
	samGold golden
}

func setupScan(ctx context.Context, e *env, seed int64) (instance, error) {
	fx, err := buildFixture(seed, scanSizes, true)
	if err != nil {
		return nil, err
	}
	// Golden: a zero-latency, uncached staged filter and export.
	ref, err := cloneMem(fx.store)
	if err != nil {
		return nil, err
	}
	_, stats, err := persona.Filter(ctx, ref, dataset, persona.FilterMappedOnly(), "m")
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	var sam bytes.Buffer
	n, err := persona.ExportSAM(ctx, ref, "m", &sam)
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	s := &scan{fx: fx, mapped: stats.Kept, samGold: goldenOf(sam.Bytes(), n)}
	if _, err := s.rep(ctx); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s *scan) input() sizes { return s.fx.sizes }
func (s *scan) close()       {}

// remote wraps a fresh copy of the dataset as the workload's remote store.
func (s *scan) remote() (*storage.RetryStore, error) {
	mem, err := cloneMem(s.fx.store)
	if err != nil {
		return nil, err
	}
	return persona.NewRetryStore(storage.WithLatency(mem, scanLatency), persona.RetryPolicy{}), nil
}

func (s *scan) pass(ctx context.Context, serial bool) (repOutcome, error) {
	store, err := s.remote()
	if err != nil {
		return repOutcome{}, err
	}
	sess := persona.NewSession(store, persona.SessionOptions{})
	defer sess.Close()
	buf := sinkBuffer(s.samGold)
	var cold, warm *persona.PipelineReport
	u, err := timed(func() error {
		var err error
		p := sess.Read(dataset).Filter(persona.FilterMappedOnly()).Write("mapped")
		if serial {
			p.Serial()
		}
		if cold, err = p.Run(ctx); err != nil {
			return err
		}
		p = sess.Read(dataset).Filter(persona.FilterMappedOnly()).ExportSAM(buf)
		if serial {
			p.Serial()
		}
		warm, err = p.Run(ctx)
		return err
	})
	if err != nil {
		return repOutcome{}, err
	}
	if cold.Records != s.mapped {
		return repOutcome{}, fmt.Errorf("cold pass wrote %d records, %d are mapped", cold.Records, s.mapped)
	}
	if err := s.samGold.check("sam", buf.Bytes(), warm.Records); err != nil {
		return repOutcome{}, err
	}
	var t reportTotals
	t.add(cold)
	t.add(warm)
	layer := t.metrics()
	layer["persona.cold_pass_s"] = cold.Elapsed.Seconds()
	layer["persona.warm_pass_s"] = warm.Elapsed.Seconds()
	return repOutcome{usage: u, records: cold.Records + warm.Records, layer: layer}, nil
}

func (s *scan) rep(ctx context.Context) (repOutcome, error) { return s.pass(ctx, false) }

func (s *scan) traced(ctx context.Context, tr *tracer) error {
	store, err := s.remote()
	if err != nil {
		return err
	}
	ch := newChain(tr, newTraceStore(store, tr))
	defer ch.close()
	buf := sinkBuffer(s.samGold)
	mappedOnly := func(in *agd.GroupStream) (*agd.GroupStream, error) {
		return ch.filter(in, persona.FilterMappedOnly())
	}
	var written, exported uint64
	root := tr.beginRep()
	src, err := ch.read(dataset)
	fl, err := then(src, err, mappedOnly)
	if err == nil {
		written, err = ch.write(ctx, fl, "mapped")
	}
	if err == nil {
		src, err = ch.read(dataset)
		fl, err = then(src, err, mappedOnly)
	}
	if err == nil {
		exported, err = ch.exportSAM(ctx, fl, buf)
	}
	tr.end(root, int64(written+exported), int64(buf.Len()))
	if err != nil {
		return err
	}
	if written != s.mapped {
		return fmt.Errorf("traced cold pass wrote %d records, %d are mapped", written, s.mapped)
	}
	return s.samGold.check("traced sam", buf.Bytes(), exported)
}

func (s *scan) layers(ctx context.Context, tr *tracer, m *measurement) (map[string]float64, error) {
	out := make(map[string]float64)
	serial, err := s.pass(ctx, true)
	if err != nil {
		return nil, fmt.Errorf("serial rep: %w", err)
	}
	out["persona.serial_over_pumped"] = ratio(serial.usage.wall.Seconds(), median(m.repWalls()))
	reps, err := runTraced(tr, func() error { return s.traced(ctx, tr) })
	if err != nil {
		return nil, err
	}
	maps.Copy(out, traceMetrics(reps, float64(s.mapped+s.samGold.records)))
	out["trace.overhead_frac"] = overhead(reps, serial.usage.wall.Seconds())
	out["sam.export_mb_per_s"] = mbPerS(s.samGold.size, out["sam.export_self_s"])
	codec, err := codecMetrics(s.fx.store)
	if err != nil {
		return nil, err
	}
	maps.Copy(out, codec)
	out["agd.edge_handoff_ns"] = edgeHandoffNS()
	return out, nil
}

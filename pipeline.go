package persona

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"persona/internal/agd"
	"persona/internal/agdsort"
	"persona/internal/align/snap"
	"persona/internal/cluster"
	"persona/internal/core"
	"persona/internal/dataflow"
	"persona/internal/filter"
	"persona/internal/formats/bam"
	"persona/internal/formats/fastq"
	"persona/internal/formats/sam"
	"persona/internal/markdup"
)

// A Pipeline is a validated, composable stage graph over a Session: one
// source (Read or ImportFASTQ), any number of transform stages (Align,
// Sort, MarkDuplicates, Filter), and one sink (Export* or Write). Run plans
// the graph and streams AGD chunks stage-to-stage over the session's shared
// executor: adjacent streaming-capable stages are fused, so chunks flow in
// memory and no intermediate dataset is written to the store. Stages with a
// global barrier — sort's merge — spill their runs to temporary blobs as
// the external sort always has, then feed the next stage from the merge's
// output stream.
//
// Builder methods record the graph and defer all validation and errors to
// Run, so construction chains fluently:
//
//	report, err := sess.Read("patient").
//		Align(idx, persona.AlignOptions{}).
//		Sort(persona.ByLocation).
//		MarkDuplicates().
//		ExportSAM(w).
//		Run(ctx)
//
// Run is one loop that builds each stage over the stream of the one before
// it, with an optional edge in between. By default every edge is there: a
// bounded queue (depth EdgeDepth, default DefaultEdgeDepth) filled by its own
// pump goroutine, so stage N+1 consumes chunk k−1 while stage N produces
// chunk k. Serial() leaves the edges out, and the sink pulls the whole chain
// on the caller's goroutine; output bytes are identical either way.
type Pipeline struct {
	sess       *Session
	stages     []pipeStage
	serial     bool
	edgeDepth  int
	tempPrefix string
	tmpSeq     atomic.Uint64
	progress   *Progress
	nodes      int                   // >= 1: run distributed (see Distributed)
	distTune   func(*cluster.Config) // test hook: adjust the cluster config
}

// DefaultEdgeDepth is the default bounded-queue depth, in row groups, of
// each pumped pipeline edge. Total groups in flight across a run stay under
// the sum of its edge depths plus one in hand per stage.
const DefaultEdgeDepth = 4

type stageKind int

const (
	stageRead stageKind = iota
	stageImportFASTQ
	stageAlign
	stageSort
	stageMarkDup
	stageFilter
	stageExportSAM
	stageExportBAM
	stageExportFASTQ
	stageWrite
)

func (k stageKind) String() string {
	switch k {
	case stageRead:
		return "read"
	case stageImportFASTQ:
		return "import-fastq"
	case stageAlign:
		return "align"
	case stageSort:
		return "sort"
	case stageMarkDup:
		return "markdup"
	case stageFilter:
		return "filter"
	case stageExportSAM:
		return "export-sam"
	case stageExportBAM:
		return "export-bam"
	case stageExportFASTQ:
		return "export-fastq"
	case stageWrite:
		return "write"
	}
	return "stage"
}

func (k stageKind) isSink() bool { return k >= stageExportSAM }

// pipeStage is one recorded stage and its parameters.
type pipeStage struct {
	kind      stageKind
	dataset   string          // stageRead, stageWrite
	src       io.Reader       // stageImportFASTQ
	refs      []agd.RefSeq    // stageImportFASTQ
	chunkSize int             // stageImportFASTQ
	idx       *Index          // stageAlign
	alignOpts AlignOptions    // stageAlign
	by        SortKey         // stageSort
	pred      FilterPredicate // stageFilter
	dst       io.Writer       // stageExport*
}

// Read starts a pipeline over an existing AGD dataset in the session's
// store, streaming every manifest column.
func (s *Session) Read(dataset string) *Pipeline {
	return &Pipeline{sess: s, stages: []pipeStage{{kind: stageRead, dataset: dataset}}}
}

// ImportFASTQ starts a pipeline over a FASTQ stream: reads are parsed into
// AGD chunks of chunkSize records (0 for the default) that feed the next
// stage in memory. refs, if known, travels in the stream metadata (and into
// the manifest, if the pipeline ends in Write).
func (s *Session) ImportFASTQ(src io.Reader, refs []agd.RefSeq, chunkSize int) *Pipeline {
	return &Pipeline{sess: s, stages: []pipeStage{{kind: stageImportFASTQ, src: src, refs: refs, chunkSize: chunkSize}}}
}

func (p *Pipeline) add(st pipeStage) *Pipeline {
	p.stages = append(p.stages, st)
	return p
}

// Align appends a results column, aligning every read against idx on the
// session's executor. Within AlignOptions, ExecutorThreads and Prefetch are
// session-owned here and ignored.
func (p *Pipeline) Align(idx *Index, opts AlignOptions) *Pipeline {
	return p.add(pipeStage{kind: stageAlign, idx: idx, alignOpts: opts})
}

// Sort reorders the stream by the given key (a global barrier: the stage
// spills sorted runs to temporary blobs, then streams their merge).
func (p *Pipeline) Sort(by SortKey) *Pipeline {
	return p.add(pipeStage{kind: stageSort, by: by})
}

// MarkDuplicates flags duplicate reads in the stream's results column.
func (p *Pipeline) MarkDuplicates() *Pipeline {
	return p.add(pipeStage{kind: stageMarkDup})
}

// Filter keeps only the rows matching pred.
func (p *Pipeline) Filter(pred FilterPredicate) *Pipeline {
	return p.add(pipeStage{kind: stageFilter, pred: pred})
}

// ExportSAM ends the pipeline by rendering the stream as SAM text into dst.
func (p *Pipeline) ExportSAM(dst io.Writer) *Pipeline {
	return p.add(pipeStage{kind: stageExportSAM, dst: dst})
}

// ExportBAM ends the pipeline by rendering the stream as BAM into dst.
func (p *Pipeline) ExportBAM(dst io.Writer) *Pipeline {
	return p.add(pipeStage{kind: stageExportBAM, dst: dst})
}

// ExportFASTQ ends the pipeline by rendering the stream's reads as FASTQ.
func (p *Pipeline) ExportFASTQ(dst io.Writer) *Pipeline {
	return p.add(pipeStage{kind: stageExportFASTQ, dst: dst})
}

// Write ends the pipeline by materializing the stream as a new AGD dataset.
func (p *Pipeline) Write(dataset string) *Pipeline {
	return p.add(pipeStage{kind: stageWrite, dataset: dataset})
}

// Serial runs the pipeline without edges between its stages: no queues and
// no pump goroutines, the stages advance one row group at a time on the
// caller's goroutine. Output bytes are identical to a pumped run; only
// scheduling differs.
func (p *Pipeline) Serial() *Pipeline {
	p.serial = true
	return p
}

// EdgeDepth sets the bounded-queue depth (in row groups) of every pumped
// edge; values < 1 select DefaultEdgeDepth. Deeper edges absorb burstier
// stages at the cost of more groups in flight.
func (p *Pipeline) EdgeDepth(depth int) *Pipeline {
	p.edgeDepth = depth
	return p
}

// TempPrefix overrides the session-assigned prefix barrier stages (sort)
// spill temporary blobs under. A job-oriented caller sets a job-unique
// prefix so every blob a run writes — spills included — lives under one
// sweepable namespace, making a crashed run safe to re-run after deleting
// the prefix. Empty (the default) keeps the session's ".pipeline/<n>/tmp"
// scheme. When a pipeline has several barrier stages, each gets a distinct
// subprefix under the given one.
func (p *Pipeline) TempPrefix(prefix string) *Pipeline {
	p.tempPrefix = prefix
	return p
}

// Observe attaches a live progress view to the next Run: per-stage record
// and group counters updated as chunks flow, readable concurrently via
// prog.Snapshot while the run is in flight.
func (p *Pipeline) Observe(prog *Progress) *Pipeline {
	p.progress = prog
	return p
}

// spillPrefix returns the temp-blob prefix for one barrier-stage build.
func (p *Pipeline) spillPrefix() string {
	if p.tempPrefix == "" {
		return p.sess.tempPrefix()
	}
	return fmt.Sprintf("%s/%d", p.tempPrefix, p.tmpSeq.Add(1))
}

// StageReport describes one stage of a completed run.
type StageReport struct {
	// Stage names the stage ("read", "align", "sort", ...).
	Stage string
	// Records is how many records the stage delivered downstream (for
	// sinks: consumed).
	Records uint64
	// Groups is how many chunk-granularity row groups that took.
	Groups int64
	// Elapsed is the wall time attributable to this stage alone (upstream
	// time excluded). On a pumped run it equals Busy: stages execute
	// concurrently, so per-stage times overlap and their sum exceeds the
	// run's wall — compare Busy against Blocked instead of against Elapsed
	// of other stages.
	Elapsed time.Duration
	// Busy is time spent doing the stage's own work — building it (for
	// barriers like sort, the eager spill phase) and producing its groups —
	// excluding time waiting on the stage above or blocked on its edges.
	Busy time.Duration
	// Blocked is time the stage's pump spent waiting on its edges: starved
	// for input (upstream slower) plus stalled pushing output (downstream
	// slower, back-pressure at edge depth). Zero on a serial run.
	Blocked time.Duration
	// PeakQueue is the deepest the stage's output queue got during a pumped
	// run (0 for the sink, which has no output edge, and on serial runs).
	PeakQueue int
}

// ExecutorStats is the session executor's activity during one run.
type ExecutorStats struct {
	// Submitted and Completed count fine-grain tasks.
	Submitted, Completed int64
	// Steals counts tasks run by a shard other than the one they were
	// submitted to — the work-stealing load-balance share.
	Steals int64
	// Busy is cumulative worker time inside tasks.
	Busy time.Duration
}

// PipelineReport aggregates a completed pipeline run.
type PipelineReport struct {
	// Stages reports each stage in graph order.
	Stages []StageReport
	// Elapsed is the whole run's wall time.
	Elapsed time.Duration
	// Records is what the sink consumed (records exported or written).
	Records uint64
	// Manifest is the output dataset's manifest (Write sink only).
	Manifest *Manifest
	// Align carries the alignment stage's report, when the pipeline aligned.
	Align *AlignReport
	// Dups carries duplicate-marking statistics, when the pipeline marked.
	Dups DupStats
	// Filtered carries filter statistics, when the pipeline filtered.
	Filtered FilterStats
	// Executor is the session executor's activity attributable to this run.
	// Concurrent pipelines on one session share the executor, so their
	// deltas overlap.
	Executor ExecutorStats
	// Storage carries the resilient store's retry/hedge activity during this
	// run, when the session's store is wrapped with NewRetryStore (nil
	// otherwise). Concurrent pipelines share the store, so deltas overlap.
	Storage *StorageStats
	// Cache carries the session chunk cache's activity during this run (nil
	// when the cache is disabled). Concurrent pipelines share the cache, so
	// deltas overlap.
	Cache *CacheStats
	// Spill carries the sort stage's spill-compression accounting, when the
	// pipeline sorted (nil otherwise).
	Spill *SpillReport
	// Pumped reports whether the run used the pumped scheduler; EdgeDepth
	// is the bounded-queue depth its edges ran with (0 when serial).
	Pumped    bool
	EdgeDepth int
	// Cluster carries the distributed run's cluster report (nil on
	// single-node runs). Its ShuffleBytes, Partitions and PartitionSkew
	// describe the cross-node range shuffle.
	Cluster *ClusterReport
}

// validate checks the stage graph shape and column flow before anything
// runs: exactly one source (guaranteed by construction), transforms in the
// middle, exactly one sink at the end, and every stage's required columns
// present — alignment appends the results column, everything downstream of
// it that needs results finds it.
func (p *Pipeline) validate(sourceCols []string, hasResults bool) error {
	if len(p.stages) < 2 {
		return fmt.Errorf("persona: pipeline has no sink (end with Export* or Write)")
	}
	has := func(col string) bool {
		for _, c := range sourceCols {
			if c == col {
				return true
			}
		}
		return false
	}
	readCols := has(agd.ColBases) && has(agd.ColQual) && has(agd.ColMetadata)
	for i, st := range p.stages[1:] {
		last := i == len(p.stages)-2
		if st.kind.isSink() != last {
			if st.kind.isSink() {
				return fmt.Errorf("persona: %s must be the final stage", st.kind)
			}
			return fmt.Errorf("persona: pipeline must end in a sink, not %s", st.kind)
		}
		switch st.kind {
		case stageAlign:
			if st.idx == nil {
				return fmt.Errorf("persona: Align needs an index")
			}
			if !has(agd.ColBases) {
				return fmt.Errorf("persona: Align needs a %q column", agd.ColBases)
			}
			if hasResults {
				return fmt.Errorf("persona: stream is already aligned")
			}
			hasResults = true
		case stageSort:
			if st.by == ByLocation && !hasResults {
				return fmt.Errorf("persona: Sort(ByLocation) needs alignment results (Align first, or Read an aligned dataset)")
			}
			if st.by == ByMetadata && !has(agd.ColMetadata) {
				return fmt.Errorf("persona: Sort(ByMetadata) needs a %q column", agd.ColMetadata)
			}
		case stageMarkDup, stageFilter:
			if !hasResults {
				return fmt.Errorf("persona: %s needs alignment results", st.kind)
			}
			if st.kind == stageFilter && st.pred == nil {
				return fmt.Errorf("persona: Filter needs a predicate")
			}
		case stageExportSAM, stageExportBAM:
			if !hasResults || !readCols {
				return fmt.Errorf("persona: %s needs the read columns and alignment results", st.kind)
			}
		case stageExportFASTQ:
			if !readCols {
				return fmt.Errorf("persona: export-fastq needs the read columns")
			}
		case stageWrite:
			if st.dataset == "" {
				return fmt.Errorf("persona: Write needs a dataset name")
			}
		}
	}
	return nil
}

// edgeStats instruments one pipeline edge: cumulative time spent inside the
// stage's Next (including its upstream pulls) and what flowed through.
type edgeStats struct {
	nanos   int64
	setup   int64 // stage construction time (sort's eager spill phase)
	groups  int64
	records uint64
}

// instrumented wraps a stream so deliveries are counted and timed. The
// wrapper preserves the delivery-ownership contract of the wrapped stream.
// slot, when non-nil, mirrors the counters into a live Progress view (the
// stats themselves stay unsynchronized — each is written by one goroutine
// and read only after the run's barrier).
func instrumented(s *agd.GroupStream, e *edgeStats, slot *progressSlot) *agd.GroupStream {
	next := func(ctx context.Context) (*agd.RowGroup, error) {
		t0 := time.Now()
		g, err := s.Next(ctx)
		e.nanos += time.Since(t0).Nanoseconds()
		if g != nil {
			e.groups++
			e.records += uint64(g.NumRecords())
			if slot != nil {
				slot.groups.Add(1)
				slot.records.Add(uint64(g.NumRecords()))
			}
		}
		if err == io.EOF && slot != nil {
			slot.done.Store(true)
		}
		return g, err
	}
	out := agd.NewGroupStream(s.Meta, next, s.Close)
	out.Owned = s.Owned
	return out
}

// runBase carries the counters snapshotted at Run entry, diffed into the
// report on completion.
type runBase struct {
	start     time.Time
	sub0      int64
	done0     int64
	busy0     int64
	steals0   int64
	storage0  StorageStats
	resilient bool
	cache0    CacheStats
	cached    bool
}

func (p *Pipeline) snapshotBase() runBase {
	sess := p.sess
	b := runBase{start: time.Now()}
	b.sub0, b.done0, b.busy0 = sess.exec.Stats()
	b.steals0 = sess.exec.Steals()
	b.storage0, b.resilient = sess.ResilienceStats()
	b.cache0, b.cached = sess.CacheStats()
	return b
}

func (p *Pipeline) finishBase(report *PipelineReport, b runBase) {
	sess := p.sess
	report.Elapsed = time.Since(b.start)
	sub1, done1, busy1 := sess.exec.Stats()
	report.Executor = ExecutorStats{
		Submitted: sub1 - b.sub0,
		Completed: done1 - b.done0,
		Steals:    sess.exec.Steals() - b.steals0,
		Busy:      time.Duration(busy1 - b.busy0),
	}
	if b.resilient {
		storage1, _ := sess.ResilienceStats()
		delta := storage1.Delta(b.storage0)
		report.Storage = &delta
	}
	if b.cached {
		cache1, _ := sess.CacheStats()
		delta := cache1.Delta(b.cache0)
		report.Cache = &delta
	}
}

// stageNames returns the report label of every stage, in graph order.
func (p *Pipeline) stageNames() []string {
	names := make([]string, 0, len(p.stages))
	for _, st := range p.stages {
		name := st.kind.String()
		if st.kind == stageSort {
			name = "sort-" + st.by.String()
		}
		names = append(names, name)
	}
	return names
}

// openSource validates the graph and opens the source stream. pipelining
// and shards configure a pumped FASTQ source (0, 0 on a serial run).
func (p *Pipeline) openSource(pipelining, shards int) (*agd.GroupStream, error) {
	sess := p.sess
	src := p.stages[0]
	switch src.kind {
	case stageRead:
		ds, err := sess.openDataset(src.dataset)
		if err != nil {
			return nil, err
		}
		hasResults := ds.Manifest.HasColumn(agd.ColResults)
		if err := p.validate(ds.Manifest.Columns, hasResults); err != nil {
			return nil, err
		}
		return ds.Groups(agd.StreamOptions{
			Prefetch:    sess.prefetch,
			ShardedPool: sess.chunkPool,
			Cache:       sess.cache,
			Codec:       agd.Codec{Exec: sess.exec},
		})
	case stageImportFASTQ:
		if err := p.validate([]string{agd.ColBases, agd.ColQual, agd.ColMetadata}, false); err != nil {
			return nil, err
		}
		return fastq.ImportStream(src.src, fastq.ImportOptions{
			ChunkSize:  src.chunkSize,
			RefSeqs:    src.refs,
			Pipelining: pipelining,
			Shards:     shards,
		}), nil
	}
	return nil, fmt.Errorf("persona: pipeline has no source")
}

// buildStage constructs one transform stage over its input stream.
// pipelining sizes the stage's output builder pool (0 on a serial run).
// The stats the stage reports land in the shared report/dups/fstats slots;
// what a stage goes on writing behind them while it streams is written by
// the one goroutine pulling its output, before run's Wait barrier.
func (p *Pipeline) buildStage(ctx context.Context, st pipeStage, in *agd.GroupStream, pipelining int, report *PipelineReport, dups **DupStats, fstats **FilterStats) (*agd.GroupStream, error) {
	sess := p.sess
	switch st.kind {
	case stageAlign:
		out, alignReport, err := core.AlignStream(core.AlignConfig{
			Index:      st.idx,
			Aligner:    snap.Config{MaxDist: st.alignOpts.MaxDist},
			Pipelining: pipelining,
		}, sess.exec, in)
		report.Align = alignReport
		return out, err
	case stageSort:
		// Spill runs all complete inside SortStream (the sort's phase-1
		// barrier), so the stats are final when it returns.
		spill := &agdsort.SpillStats{}
		out, err := agdsort.SortStream(ctx, sess.store, in, agdsort.Options{
			By:           st.by,
			TempPrefix:   p.spillPrefix(),
			Pipelining:   pipelining,
			SpillDecider: sess.spillDecider(),
			Spill:        spill,
		})
		rep := spill.Report()
		report.Spill = &rep
		return out, err
	case stageMarkDup:
		out, d, err := markdup.MarkStream(in, pipelining)
		*dups = d
		return out, err
	case stageFilter:
		out, f, err := filter.RunStream(in, st.pred, pipelining)
		*fstats = f
		return out, err
	}
	return nil, fmt.Errorf("persona: %s is not a transform stage", st.kind)
}

// runSink drains the final stream into the pipeline's sink, returning the
// records consumed.
func (p *Pipeline) runSink(ctx context.Context, stream *agd.GroupStream, report *PipelineReport) (uint64, error) {
	sess := p.sess
	sink := p.stages[len(p.stages)-1]
	switch sink.kind {
	case stageExportSAM:
		return sam.ExportStream(ctx, stream, sink.dst)
	case stageExportBAM:
		return bam.ExportStream(ctx, stream, sink.dst)
	case stageExportFASTQ:
		return fastq.ExportStream(ctx, stream, sink.dst)
	case stageWrite:
		// The write replaces whatever blobs the target dataset had: drop any
		// cached chunks/manifest for it, then remember the fresh manifest so
		// an immediately following read skips the open round trip.
		sess.invalidateDataset(sink.dataset)
		m, err := agd.WriteGroups(ctx, stream, sess.store, sink.dataset, agd.WriterOptions{})
		var n uint64
		if m != nil {
			report.Manifest = m
			n = m.NumRecords()
			if err == nil {
				sess.rememberManifest(sink.dataset, m)
			}
		}
		return n, err
	}
	return 0, fmt.Errorf("persona: pipeline has no sink")
}

// passthroughStage reports whether a stage's output groups keep their input
// group alive until Release (its output chunks alias upstream chunks).
// Pool windows must cover the whole passthrough span: a group produced
// above such a stage stays checked out across every edge the aliasing
// chain crosses.
func passthroughStage(k stageKind) bool {
	return k == stageAlign || k == stageMarkDup
}

// poolWindow sizes the builder pool of the stage at index i: one set being
// filled, plus (depth+1) per downstream edge — depth queued groups and one
// in the consumer's hand — across consecutive passthrough stages (which keep
// the producing stage's sets checked out beyond their own edge). An
// undersized window would block the producer (safe back-pressure, wasted
// overlap); this window never blocks. A serial run (depth 0) has no edges:
// its stages reuse one set of builders, window 0.
func (p *Pipeline) poolWindow(i, depth int) int {
	if depth == 0 {
		return 0
	}
	w := 1
	for j := i; j < len(p.stages)-1; j++ {
		w += depth + 1
		if !passthroughStage(p.stages[j+1].kind) {
			break
		}
	}
	return w
}

// Run plans, validates and executes the pipeline, returning the aggregated
// report. Cancellation and deadline of ctx are checked per chunk at every
// stage. One loop builds the graph; unless the pipeline is Serial() each
// stage's output crosses a bounded queue drained by its own goroutine (see
// Pipeline doc). Output bytes are identical either way.
func (p *Pipeline) Run(ctx context.Context) (*PipelineReport, error) {
	if len(p.stages) < 2 {
		return nil, fmt.Errorf("persona: pipeline has no sink (end with Export* or Write)")
	}
	if p.nodes >= 1 {
		return p.runDistributed(ctx)
	}
	return p.run(ctx)
}

// run builds every stage once, in graph order on the caller's goroutine,
// then drains the sink there. Between two stages sits a link: the upstream
// stream itself on a serial run, or a pump goroutine draining it into a
// bounded edge, so stage N+1 consumes chunk k−1 while stage N produces chunk
// k. A barrier stage's construction (sort's staging and spill) pulls its
// input through the link while the pumps already started above it keep
// running. Memory stays bounded (groups in flight ≤ Σ edge depths + one in
// hand per stage, enforced by edge depth and the stages' builder-pool
// windows), and teardown cascades both ways — a failing stage closes its
// output edge (downstream sees the error) and its input stream (upstream
// pumps stop, queued groups drain back to their pools).
func (p *Pipeline) run(ctx context.Context) (*PipelineReport, error) {
	sess := p.sess
	depth, shards := 0, 0
	if !p.serial {
		depth, shards = p.edgeDepth, sess.exec.NumShards()
		if depth < 1 {
			depth = DefaultEdgeDepth
		}
	}
	report := &PipelineReport{Pumped: !p.serial, EdgeDepth: depth}
	base := p.snapshotBase()
	names := p.stageNames()

	stream, err := p.openSource(p.poolWindow(0, depth), shards)
	if err != nil {
		return nil, err
	}
	if p.progress != nil {
		p.progress.init(names)
	}

	// One stats slot per stage, written only by the goroutine pulling that
	// stage's output; the pump Wait in stop orders the final reads.
	pumps := dataflow.NewPumps(ctx)
	var stats []*edgeStats
	var edges []*agd.BoundedEdge
	link := func(s *agd.GroupStream, setup time.Duration) *agd.GroupStream {
		e := &edgeStats{setup: setup.Nanoseconds()}
		var slot *progressSlot
		if p.progress != nil {
			slot = p.progress.slot(len(stats))
		}
		stats = append(stats, e)
		s = instrumented(s, e, slot)
		if p.serial {
			return s
		}
		edge := agd.PumpEdge(pumps, s, depth)
		edges = append(edges, edge)
		return edge.Stream(s.Meta)
	}
	// stop ends the run, clean or failed: closing the last link tears the
	// whole chain down (every stage's stop hook closes its upstream, a closed
	// edge stops the pump feeding it) and finalizes the stage reports (align
	// stats, spill cleanup).
	stop := func(err error) error {
		pumps.Fail(err)
		stream.Close()
		return pumps.Wait()
	}

	stream = link(stream, 0)
	var (
		dups   *DupStats
		fstats *FilterStats
	)
	for i, st := range p.stages[1 : len(p.stages)-1] {
		// A barrier stage's eager phase (sort's staging + spill) runs at
		// construction, before any Next: it is charged to the stage as setup.
		t0 := time.Now()
		out, err := p.buildStage(pumps.Context(), st, stream, p.poolWindow(i+1, depth), report, &dups, &fstats)
		if err != nil {
			return nil, stop(err)
		}
		stream = link(out, time.Since(t0))
	}

	// The sink has no output stream to instrument: its slot holds its wall
	// and what it consumed.
	t0 := time.Now()
	n, err := p.runSink(ctx, stream, report)
	sink := &edgeStats{nanos: time.Since(t0).Nanoseconds(), records: n}
	if err := stop(err); err != nil {
		return nil, err
	}
	if len(edges) > 0 {
		sink.groups = edges[len(edges)-1].Moved()
	}
	report.Records = n
	if dups != nil {
		report.Dups = *dups
	}
	if fstats != nil {
		report.Filtered = *fstats
	}
	if p.progress != nil {
		p.progress.finish(n, stats[len(stats)-1].groups)
	}
	p.finishBase(report, base)

	// Per-stage attribution: a stage's Busy is the wall spent inside its
	// Next (plus its setup) minus the time those pulls waited on upstream —
	// the upstream stream's whole Next time on a serial run (the chain is
	// pull-based, so it all happens inside this stage's pulls or setup), the
	// input edge's starvation on a pumped one. Blocked is that starvation
	// plus back-pressure stalls pushing downstream. Pumped stages run
	// concurrently, so their Busy values overlap in wall time and do not sum
	// to Elapsed.
	stats = append(stats, sink)
	for i, e := range stats {
		sr := StageReport{Stage: names[i], Records: e.records, Groups: e.groups}
		var wait time.Duration
		switch {
		case i == 0:
		case p.serial:
			wait = time.Duration(stats[i-1].nanos)
		default:
			wait = edges[i-1].PopWait()
			sr.Blocked = wait
		}
		if i < len(edges) {
			sr.Blocked += edges[i].PushWait()
			sr.PeakQueue = edges[i].PeakDepth()
		}
		sr.Busy = max(0, time.Duration(e.nanos+e.setup)-wait)
		sr.Elapsed = sr.Busy
		report.Stages = append(report.Stages, sr)
	}
	return report, nil
}

package persona

import (
	"context"
	"fmt"
	"io"
	"runtime"
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
	"persona/internal/varcall"
)

// A Pipeline is a validated, composable stage graph over a Session: one
// source (Read or ImportFASTQ), any number of transform stages (Align,
// Sort, MarkDuplicates, Filter), and one sink (Export* or Write). Run plans
// the graph and streams AGD chunks stage-to-stage over the session's shared
// executor: adjacent streaming-capable stages are fused, so chunks flow in
// memory and nothing intermediate is written to the store. A stage with a
// global barrier — sort — drains its input into sorted runs held in memory,
// then feeds the next stage from the merge's output stream.
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
// it, with an edge in between only where a second processor can use it.
// Above GOMAXPROCS 1 every edge is a bounded queue (pumpDepth) filled by its
// own pump goroutine, so stage N+1 consumes chunk k−1 while stage N produces
// chunk k. At one processor, or with Serial(), there are no edges, and the
// sink pulls the whole chain on the caller's goroutine; output bytes are
// identical either way.
type Pipeline struct {
	sess       *Session
	stages     []pipeStage
	serial     bool
	tempPrefix string
	tmpSeq     atomic.Uint64
	progress   *Progress
	nodes      int                   // >= 1: run distributed (see Distributed)
	distTune   func(*cluster.Config) // test hook: adjust the cluster config
	testDepth  int                   // test hook: > 0 pumps at this depth at any GOMAXPROCS
}

// pumpDepth is the depth, in row groups, of every edge of a run above one
// processor: one queued group plus one in each stage's hand. Two-core pairs
// of wgs_fused (BENCH_41.json) find deeper edges no faster, only bigger.
const pumpDepth = 1

type stageKind int

const (
	stageRead stageKind = iota
	stageImportFASTQ
	stageImportSAM
	stageAlign
	stageSort
	stageMarkDup
	stageFilter
	stageExportSAM
	stageExportBAM
	stageExportFASTQ
	stageCallVariants
	stageWrite
	stageWriteBack
)

func (k stageKind) String() string {
	switch k {
	case stageRead:
		return "read"
	case stageImportFASTQ:
		return "import-fastq"
	case stageImportSAM:
		return "import-sam"
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
	case stageCallVariants:
		return "call-variants"
	case stageWrite:
		return "write"
	case stageWriteBack:
		return "write-back"
	}
	return "stage"
}

func (k stageKind) isSink() bool { return k >= stageExportSAM }

// pipeStage is one recorded stage and its parameters.
type pipeStage struct {
	kind      stageKind
	dataset   string          // stageRead, stageWrite
	src       io.Reader       // stageImport*
	refs      []agd.RefSeq    // stageImportFASTQ
	chunkSize int             // stageImport*
	idx       *Index          // stageAlign
	alignOpts AlignOptions    // stageAlign
	paired    bool            // stageAlign
	by        SortKey         // stageSort
	pred      FilterPredicate // stageFilter
	dst       io.Writer       // stageExport*
	ref       *Genome         // stageCallVariants
	variants  *[]Variant      // stageCallVariants: where the calls go
}

// Read starts a pipeline over an existing AGD dataset in the session's
// store. Before a Write sink it streams every manifest column; otherwise
// only the columns the pipeline's stages and sink read.
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
// session's executor. AlignOptions.ExecutorThreads is session-owned here and
// ignored.
func (p *Pipeline) Align(idx *Index, opts AlignOptions) *Pipeline {
	return p.add(pipeStage{kind: stageAlign, idx: idx, alignOpts: opts})
}

// Sort reorders the stream by the given key (a global barrier: the stage
// sorts its input into runs in memory, then streams their merge).
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

// ExportBAM ends the pipeline by rendering the stream as BAM into dst. Its
// BGZF blocks are compressed as tasks on the session's executor, the same
// queue the align stage and the chunk codec feed.
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

// Serial runs the pipeline without edges between its stages at any
// processor count, as every run at GOMAXPROCS 1 does: no queues and no pump
// goroutines, the stages advance one row group at a time on the caller's
// goroutine. Output bytes are identical to a pumped run; only scheduling
// differs.
func (p *Pipeline) Serial() *Pipeline {
	p.serial = true
	return p
}

// edgeDepth is the depth of every edge of a run, read once per Run: 0 (no
// edges) when Serial or at GOMAXPROCS 1, pumpDepth above that.
func (p *Pipeline) edgeDepth() int {
	if p.serial || p.testDepth == 0 && runtime.GOMAXPROCS(0) == 1 {
		return 0
	}
	if p.testDepth > 0 {
		return p.testDepth
	}
	return pumpDepth
}

// TempPrefix sets the namespace a distributed run (Distributed) stores its
// shuffle runs, pieces and halos under, and an export's staging dataset;
// each run gets a distinct subprefix under it. A job-oriented caller sets a
// job-unique prefix so every blob a run writes lives under one sweepable
// namespace, making a crashed run safe to re-run after deleting the prefix.
// Empty (the default) keeps the session's "cluster/run-<n>" scheme. A
// single-node run stores nothing but its sink's output: the sort keeps its
// runs in memory.
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
	// barriers like sort, the eager staging phase) and producing its groups —
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
	// Steals is always 0: the executor has one task queue and nothing to
	// steal from. The field stays because bench/totals.go reads it.
	Steals int64
	// Busy is cumulative worker time inside tasks.
	Busy time.Duration
}

// SpillReport is the type of PipelineReport.Spill, which nothing fills any
// more; it stays only because the benchmark (bench/) reads its fields.
type SpillReport struct {
	Runs        int   `json:"runs"`
	StoredBytes int64 `json:"stored_bytes"`
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
	// Spill is always nil: the sort keeps its runs in memory and stores
	// none. It stays only because the benchmark (bench/) reads it.
	Spill *SpillReport
	// Pumped reports whether the run had pumped edges; EdgeDepth is their
	// depth: 0 when Serial or at GOMAXPROCS 1, 1 above that.
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
			if !readCols {
				return fmt.Errorf("persona: %s needs the read columns", st.kind)
			}
			if !hasResults {
				return fmt.Errorf("persona: %s needs alignment results: the stream has no results column", st.kind)
			}
		case stageExportFASTQ:
			if !readCols {
				return fmt.Errorf("persona: export-fastq needs the read columns")
			}
		case stageWrite:
			if st.dataset == "" {
				return fmt.Errorf("persona: Write needs a dataset name")
			}
		case stageWriteBack:
			if !hasResults {
				return fmt.Errorf("persona: %s needs alignment results", st.kind)
			}
		}
	}
	return nil
}

// edgeStats instruments one pipeline edge: cumulative time spent inside the
// stage's Next (including its upstream pulls) and what flowed through.
type edgeStats struct {
	nanos   int64
	setup   int64 // stage construction time (sort's eager staging phase)
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
	storage0  StorageStats
	resilient bool
	cache0    CacheStats
	cached    bool
}

func (p *Pipeline) snapshotBase() runBase {
	sess := p.sess
	b := runBase{start: time.Now()}
	b.sub0, b.done0, b.busy0 = sess.exec.Stats()
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

// openSource validates the graph and opens the source stream, returning
// the source dataset's manifest too (nil for an import source). pipelining
// sizes a pumped FASTQ source's builder pool (0 on a serial run).
func (p *Pipeline) openSource(pipelining int) (*agd.GroupStream, *agd.Manifest, error) {
	sess := p.sess
	src := p.stages[0]
	switch src.kind {
	case stageRead:
		ds, err := sess.openDataset(src.dataset)
		if err != nil {
			return nil, nil, err
		}
		m := ds.Manifest
		if err := p.validate(m.Columns, m.HasColumn(agd.ColResults)); err != nil {
			return nil, nil, err
		}
		in, err := ds.Groups(agd.StreamOptions{
			Columns:     p.sourceColumns(m.Columns),
			ShardedPool: sess.chunkPool,
			Cache:       sess.cache,
			Codec:       agd.Codec{Exec: sess.exec},
		})
		return in, m, err
	case stageImportFASTQ:
		if err := p.validate([]string{agd.ColBases, agd.ColQual, agd.ColMetadata}, false); err != nil {
			return nil, nil, err
		}
		return fastq.ImportStream(src.src, fastq.ImportOptions{
			ChunkSize:  src.chunkSize,
			RefSeqs:    src.refs,
			Pipelining: pipelining,
		}), nil, nil
	case stageImportSAM:
		if err := p.validate([]string{agd.ColBases, agd.ColQual, agd.ColMetadata, agd.ColResults}, true); err != nil {
			return nil, nil, err
		}
		in, err := sam.ImportStream(src.src, sam.ImportOptions{ChunkSize: src.chunkSize})
		return in, nil, err
	}
	return nil, nil, fmt.Errorf("persona: pipeline has no source")
}

// sourceColumns picks, in manifest order, the columns a Read source fetches:
// every one before a Write sink, which stores them all, and otherwise only
// those a stage or the sink reads. A column the graph computes (results,
// after Align) is never in the manifest, so it is never fetched.
func (p *Pipeline) sourceColumns(all []string) []string {
	read := map[string]bool{}
	for _, st := range p.stages[1:] {
		switch st.kind {
		case stageWrite:
			return all
		case stageAlign:
			read[agd.ColBases] = true
		case stageSort:
			if st.by == ByMetadata {
				read[agd.ColMetadata] = true
			} else {
				read[agd.ColResults] = true
			}
		case stageMarkDup, stageFilter, stageWriteBack:
			read[agd.ColResults] = true
		case stageExportSAM, stageExportBAM:
			read[agd.ColResults] = true
			fallthrough
		case stageExportFASTQ:
			read[agd.ColBases], read[agd.ColQual], read[agd.ColMetadata] = true, true, true
		case stageCallVariants:
			read[agd.ColBases], read[agd.ColQual], read[agd.ColResults] = true, true, true
		}
	}
	var cols []string
	for _, c := range all {
		if read[c] {
			cols = append(cols, c)
		}
	}
	return cols
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
			Paired:     st.paired,
			Pipelining: pipelining,
		}, sess.exec, in)
		report.Align = alignReport
		return out, err
	case stageSort:
		return agdsort.SortStream(ctx, sess.store, in, agdsort.Options{By: st.by, Pipelining: pipelining})
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
// records consumed. src is the source dataset's manifest (nil unless the
// source is Read) and start the run's start.
func (p *Pipeline) runSink(ctx context.Context, stream *agd.GroupStream, src *agd.Manifest, start time.Time, report *PipelineReport) (uint64, error) {
	sess := p.sess
	sink := p.stages[len(p.stages)-1]
	switch sink.kind {
	case stageExportSAM:
		return sam.ExportStream(ctx, stream, sink.dst)
	case stageExportBAM:
		return bam.ExportStreamOn(ctx, stream, sink.dst, sess.exec)
	case stageExportFASTQ:
		return fastq.ExportStream(ctx, stream, sink.dst)
	case stageCallVariants:
		pile := varcall.NewPileup(sink.ref)
		err := pile.AddStream(ctx, stream, varcall.NewOptions())
		if err == nil {
			*sink.variants, err = pile.Call(varcall.NewOptions())
		}
		reads, _ := pile.Stats()
		return uint64(reads), err
	case stageWrite:
		// The write replaces whatever blobs the target dataset had: drop any
		// cached chunks/manifest for it, then remember the fresh manifest so
		// an immediately following read skips the open round trip.
		sess.invalidateDataset(sink.dataset)
		m, err := agd.WriteGroups(ctx, stream, sess.store, sink.dataset, agd.WriterOptions{Codec: agd.Codec{Exec: sess.exec}})
		var n uint64
		if m != nil {
			report.Manifest = m
			n = m.NumRecords()
			if err == nil {
				sess.rememberManifest(sink.dataset, m)
			}
		}
		return n, err
	case stageWriteBack:
		return p.writeBack(ctx, stream, src, start, report)
	}
	return 0, fmt.Errorf("persona: pipeline has no sink")
}

// writeBack is the sink of the one-shot Align and MarkDuplicates: it stores
// the stream's results column into the source dataset m, next to the
// columns it was computed from, and registers the column when it is new —
// or, when a new column fails to land, deletes it again, so a failed Align
// leaves the dataset as it found it (agd.AddColumn).
func (p *Pipeline) writeBack(ctx context.Context, stream *agd.GroupStream, m *agd.Manifest, start time.Time, report *PipelineReport) (uint64, error) {
	sess := p.sess
	sess.invalidateDataset(m.Name)
	out, err := agd.AddColumn(sess.store, m, agd.ColResults, func() error {
		err := agd.WriteColumn(ctx, stream, sess.store, m, agd.ColResults, agd.Codec{Exec: sess.exec})
		if a := report.Align; err == nil && a != nil {
			// The stage stopped its clock at the last group aligned; the
			// run ends when the last results blob is stored.
			a.Elapsed = time.Since(start)
			a.BasesPerSec = float64(a.Bases) / a.Elapsed.Seconds()
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	report.Manifest = out
	sess.rememberManifest(m.Name, out)
	return out.NumRecords(), nil
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
// filled, plus (depth+1) per downstream edge — at pumpDepth, one queued group
// and one in the consumer's hand — across consecutive passthrough stages
// (which keep the producing stage's sets checked out beyond their own edge).
// An undersized window would block the producer (safe back-pressure, wasted
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
// stage. One loop builds the graph; above one processor, unless Serial(),
// each stage's output crosses a bounded queue drained by its own goroutine
// (see Pipeline doc). Output bytes are identical either way.
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
// k. A barrier stage's construction (sort's staging and run sorts) pulls its
// input through the link while the pumps already started above it keep
// running. Memory stays bounded (groups in flight ≤ Σ edge depths + one in
// hand per stage, enforced by edge depth and the stages' builder-pool
// windows), and teardown cascades both ways — a failing stage closes its
// output edge (downstream sees the error) and its input stream (upstream
// pumps stop, queued groups drain back to their pools).
func (p *Pipeline) run(ctx context.Context) (*PipelineReport, error) {
	depth := p.edgeDepth()
	report := &PipelineReport{Pumped: depth > 0, EdgeDepth: depth}
	base := p.snapshotBase()
	names := p.stageNames()

	stream, src, err := p.openSource(p.poolWindow(0, depth))
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
		if depth == 0 {
			return s
		}
		edge := agd.PumpEdge(pumps, s, depth)
		edges = append(edges, edge)
		return edge.Stream(s.Meta)
	}
	// stop ends the run, clean or failed: closing the last link tears the
	// whole chain down (every stage's stop hook closes its upstream, a closed
	// edge stops the pump feeding it) and finalizes the stage reports (align
	// stats).
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
		// A barrier stage's eager phase (sort's staging + run sorts) runs at
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
	n, err := p.runSink(ctx, stream, src, base.start, report)
	sink := &edgeStats{nanos: time.Since(t0).Nanoseconds(), records: n}
	if err := stop(err); err != nil {
		if fstats != nil && fstats.Kept == 0 && src != nil && fstats.In == src.NumRecords() && ctx.Err() == nil {
			// Every record was seen and none kept: a Write sink's "stream
			// has no records" has a better name here.
			err = fmt.Errorf("persona: no records of %q match the filter", src.Name)
		}
		return nil, err
	}
	sink.groups = stats[len(stats)-1].groups
	report.Records = n
	if dups != nil {
		report.Dups = *dups
	}
	if fstats != nil {
		report.Filtered = *fstats
	}
	if p.progress != nil {
		p.progress.finish(n, sink.groups)
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
		case depth == 0:
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

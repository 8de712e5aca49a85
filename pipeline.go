package persona

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
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
// Sort, MarkDuplicates, Filter), and one sink (Export* or Write). Each
// builder method records one stage value, which carries everything the
// stage is: its name, the columns it reads and adds, its own checks and how
// it runs. Run validates the graph against the columns the source opens and
// streams AGD chunks stage-to-stage over the session's shared executor:
// chunks flow in memory and nothing intermediate is written to the store.
// A stage with a global barrier — sort — drains its input into sorted runs
// held in memory, then feeds the next stage from the merge's output stream.
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
// identical either way. Distributed runs the same stage values across
// nodes: the stages before a Sort in map tasks, those after it in the
// reduce, with MarkDuplicates declaring the halo its partitions need; a
// pipeline without a Sort runs every stage in one map task per chunk.
type Pipeline struct {
	sess       *Session
	stages     []stage
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

// A stage is one step of a pipeline, one value per builder method. A source
// opens its stream, a transform builds its stream over the stream upstream
// (the embedded cluster.Stage, which a distributed task runs as it is), and
// a sink drains the last stream. Validate, sourceColumns, poolWindow, the
// local run and the distributed plan are all loops over these values.
type stage struct {
	cluster.Stage
	// name labels the stage in reports ("read", "align", "sort-location").
	name string
	// reads lists the columns the stage reads: nil for Write, which stores
	// them all. A source's Adds are the columns it opens.
	reads []string
	// err is what is wrong with the stage's arguments, reported by Run.
	err error
	// passthrough marks a stage whose output groups keep their input group
	// alive until Release (its output chunks alias upstream chunks): a
	// group produced above it stays checked out across its edge too.
	passthrough bool
	// dataset is what a Read source opens or a Write or write-back sink
	// writes.
	dataset string
	// sort is a Sort stage's key (nil for every other stage).
	sort *SortKey
	// halo is set by the one stage whose rows reach across a partition cut
	// of a distributed run: MarkDuplicates (see cluster.PipelinePlan.Halo).
	halo func() func(keyField []byte) (int64, error)
	// open opens a source's stream; drain drains the last stream into a
	// sink, returning the records consumed.
	open  func(r *run) (*agd.GroupStream, error)
	drain func(r *run, in *agd.GroupStream) (uint64, error)
}

// run is one Run of a pipeline as its stages see it: a transform is built
// in its Env; the source and the sink see the rest too.
type run struct {
	cluster.Env
	report *PipelineReport
	src    *agd.Dataset // what a Read source opens (nil for an import)
	start  time.Time
}

// filteredOut names a run's failure for the filter when the filter saw every
// record of src and kept none: a Write sink's "no records" has a better name
// then. Any other err is returned as it is.
func filteredOut(err error, f *FilterStats, src *agd.Manifest) error {
	if f != nil && f.Kept == 0 && f.In == src.NumRecords() {
		return fmt.Errorf("persona: %w of %q match the filter", agd.ErrNoRecords, src.Name)
	}
	return err
}

// ErrRefused is wrapped by every refusal of Validate, which tells a graph
// Run cannot run from a store that failed. Its text prefixes each message.
var ErrRefused = errors.New("persona")

// argErr is a builder's argument check: msg as a refusal when bad.
func argErr(bad bool, msg string) error {
	if bad {
		return fmt.Errorf("%w: %s", ErrRefused, msg)
	}
	return nil
}

var (
	readColumns    = []string{agd.ColBases, agd.ColQual, agd.ColMetadata}
	alignedColumns = []string{agd.ColBases, agd.ColQual, agd.ColMetadata, agd.ColResults}
)

// Read starts a pipeline over an existing AGD dataset in the session's
// store. Before a Write sink it streams every manifest column; otherwise
// only the columns the pipeline's stages and sink read.
func (s *Session) Read(dataset string) *Pipeline {
	p := &Pipeline{sess: s}
	return p.add(stage{name: "read", dataset: dataset, open: func(r *run) (*agd.GroupStream, error) {
		return r.src.Groups(agd.StreamOptions{
			Columns: p.sourceColumns(r.src.Manifest.Columns),
			Cache:   s.cache,
			Codec:   agd.Codec{Exec: s.exec},
		})
	}})
}

// ImportFASTQ starts a pipeline over a FASTQ stream: reads are parsed into
// AGD chunks of chunkSize records (0 for the default) that feed the next
// stage in memory. refs, if known, travels in the stream metadata (and into
// the manifest, if the pipeline ends in Write).
func (s *Session) ImportFASTQ(src io.Reader, refs []agd.RefSeq, chunkSize int) *Pipeline {
	p := &Pipeline{sess: s}
	return p.add(stage{name: "import-fastq", Stage: cluster.Stage{Adds: readColumns}, open: func(r *run) (*agd.GroupStream, error) {
		return fastq.ImportStream(src, fastq.ImportOptions{ChunkSize: chunkSize, RefSeqs: refs, Pipelining: r.Window}), nil
	}})
}

func (p *Pipeline) add(st stage) *Pipeline {
	p.stages = append(p.stages, st)
	return p
}

// Align appends a results column, aligning every read against idx on the
// session's executor. AlignOptions.ExecutorThreads is session-owned here and
// ignored.
func (p *Pipeline) Align(idx *Index, opts AlignOptions) *Pipeline {
	return p.align(idx, opts, false)
}

// align is the Align stage, single-end or (for the one-shot AlignPaired)
// paired.
func (p *Pipeline) align(idx *Index, opts AlignOptions, paired bool) *Pipeline {
	build := func(e *cluster.Env, in *agd.GroupStream) (*agd.GroupStream, error) {
		out, rep, err := core.AlignStream(core.AlignConfig{
			Index:      idx,
			Aligner:    snap.Config{MaxDist: opts.MaxDist},
			Paired:     paired,
			Pipelining: e.Window,
		}, e.Exec, in)
		e.Align = rep
		return out, err
	}
	return p.add(stage{name: "align", reads: []string{agd.ColBases}, err: argErr(idx == nil, "Align needs an index"),
		passthrough: true, Stage: cluster.Stage{Adds: []string{agd.ColResults}, Build: build}})
}

// Sort reorders the stream by the given key (a global barrier: the stage
// sorts its input into runs in memory, then streams their merge).
func (p *Pipeline) Sort(by SortKey) *Pipeline {
	key := agd.ColResults
	if by == ByMetadata {
		key = agd.ColMetadata
	}
	build := func(e *cluster.Env, in *agd.GroupStream) (*agd.GroupStream, error) {
		return agdsort.SortStream(e.Ctx, p.sess.store, in, agdsort.Options{By: by, Pipelining: e.Window})
	}
	return p.add(stage{name: "sort-" + by.String(), reads: []string{key}, sort: &by, Stage: cluster.Stage{Build: build}})
}

// MarkDuplicates flags duplicate reads in the stream's results column. It
// is the one stage that declares a halo: run distributed, its marker in each
// partition is seeded from the rows just below the partition's cut.
func (p *Pipeline) MarkDuplicates() *Pipeline {
	build := func(e *cluster.Env, in *agd.GroupStream) (out *agd.GroupStream, err error) {
		out, e.Dups, err = markdup.SeededStream(in, e.Halo, e.Window)
		return out, err
	}
	halo := func() func([]byte) (int64, error) { return markdup.NewMarker(0).Span }
	return p.add(stage{name: "markdup", reads: []string{agd.ColResults}, passthrough: true, halo: halo, Stage: cluster.Stage{Build: build}})
}

// Filter keeps only the rows matching pred.
func (p *Pipeline) Filter(pred FilterPredicate) *Pipeline {
	build := func(e *cluster.Env, in *agd.GroupStream) (*agd.GroupStream, error) {
		out, stats, err := filter.RunStream(in, pred, e.Window)
		e.Filtered = stats
		return out, err
	}
	return p.add(stage{name: "filter", reads: []string{agd.ColResults}, err: argErr(pred == nil, "Filter needs a predicate"), Stage: cluster.Stage{Build: build}})
}

// ExportSAM ends the pipeline by rendering the stream as SAM text into dst.
func (p *Pipeline) ExportSAM(dst io.Writer) *Pipeline {
	return p.add(stage{name: "export-sam", reads: alignedColumns, drain: func(r *run, in *agd.GroupStream) (uint64, error) {
		return sam.ExportStream(r.Ctx, in, dst)
	}})
}

// ExportBAM ends the pipeline by rendering the stream as BAM into dst. Its
// BGZF blocks are compressed as tasks on the session's executor, the same
// queue the align stage and the chunk codec feed.
func (p *Pipeline) ExportBAM(dst io.Writer) *Pipeline {
	return p.add(stage{name: "export-bam", reads: alignedColumns, drain: func(r *run, in *agd.GroupStream) (uint64, error) {
		return bam.ExportStreamOn(r.Ctx, in, dst, r.Exec)
	}})
}

// ExportFASTQ ends the pipeline by rendering the stream's reads as FASTQ.
func (p *Pipeline) ExportFASTQ(dst io.Writer) *Pipeline {
	return p.add(stage{name: "export-fastq", reads: readColumns, drain: func(r *run, in *agd.GroupStream) (uint64, error) {
		return fastq.ExportStream(r.Ctx, in, dst)
	}})
}

// Write ends the pipeline by materializing the stream as a new AGD dataset.
// It cannot name its own source: the write replaces the dataset's blobs
// while the source still reads them.
func (p *Pipeline) Write(dataset string) *Pipeline {
	bad := cmp.Or(argErr(dataset == "", "Write needs a dataset name"),
		argErr(dataset == p.stages[0].dataset, fmt.Sprintf("Write cannot replace its source %q", dataset)))
	return p.add(stage{name: "write", dataset: dataset, err: bad, drain: func(r *run, in *agd.GroupStream) (uint64, error) {
		// The write replaces whatever blobs the target dataset had: drop any
		// cached chunks/manifest for it, then remember the fresh manifest so
		// an immediately following read skips the open round trip.
		sess := p.sess
		sess.invalidateDataset(dataset)
		m, err := agd.WriteGroups(r.Ctx, in, sess.store, dataset, agd.WriterOptions{Codec: agd.Codec{Exec: sess.exec}})
		if err != nil {
			return 0, err
		}
		r.report.Manifest = m
		sess.rememberManifest(dataset, m)
		return m.NumRecords(), nil
	}})
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
	// describe the cross-node range shuffle (0 on a run without a Sort).
	Cluster *ClusterReport
}

// Validate is Run's check before anything runs, with Run's error: one sink,
// at the end; every stage's arguments; every column a stage reads present
// upstream of it, and none that it adds; for a Distributed run, a Read
// source, at most one Sort to split at, and MarkDuplicates directly after a
// location Sort. It reads only the manifest a Read source names and returns
// that dataset (nil for an import). Refusals wrap ErrRefused; any other
// error is the store's, opening the source.
func (p *Pipeline) Validate() (*Dataset, error) {
	if len(p.stages) < 2 {
		return nil, fmt.Errorf("%w: pipeline has no sink (end with Export* or Write)", ErrRefused)
	}
	src := p.stages[0]
	if p.nodes >= 1 && src.dataset == "" {
		return nil, fmt.Errorf("%w: distributed pipelines need a Read source, not %s", ErrRefused, src.name)
	}
	cols := slices.Clone(src.Adds)
	var ds *Dataset
	if src.dataset != "" {
		var err error
		if ds, err = p.sess.openDataset(src.dataset); err != nil {
			return nil, err
		}
		cols = slices.Clone(ds.Manifest.Columns)
	}
	for i, st := range p.stages[1:] {
		if sink, last := st.drain != nil, i == len(p.stages)-2; sink != last {
			if sink {
				return nil, fmt.Errorf("%w: %s must be the final stage", ErrRefused, st.name)
			}
			return nil, fmt.Errorf("%w: pipeline must end in a sink, not %s", ErrRefused, st.name)
		}
		if st.err != nil {
			return nil, st.err
		}
		for _, c := range st.reads {
			switch {
			case slices.Contains(cols, c):
			case c == agd.ColResults:
				return nil, fmt.Errorf("%w: %s needs alignment results: the stream has no results column", ErrRefused, st.name)
			default:
				return nil, fmt.Errorf("%w: %s needs a %q column", ErrRefused, st.name, c)
			}
		}
		if slices.ContainsFunc(st.Adds, func(c string) bool { return slices.Contains(cols, c) }) {
			// The one column a stage adds is Align's results.
			return nil, fmt.Errorf("%w: stream is already aligned", ErrRefused)
		}
		cols = append(cols, st.Adds...)
	}
	if p.nodes >= 1 {
		if _, err := p.split(); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// edgeStats instruments one pipeline edge: cumulative time spent inside the
// stage's Next (including its upstream pulls) and what flowed through.
type edgeStats struct {
	nanos   int64
	setup   int64 // stage construction time (sort's eager staging phase)
	groups  int64
	records uint64
}

// instrumented wraps a stream so deliveries are counted and timed.
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
	return agd.NewGroupStream(s.Meta, next, s.Close)
}

// measure snapshots the session's counters at the start of a run and
// returns the start and the function that, at its end, sets the report's
// wall time and the counters' deltas.
func (p *Pipeline) measure() (time.Time, func(*PipelineReport)) {
	sess := p.sess
	start := time.Now()
	sub0, done0, busy0 := sess.exec.Stats()
	storage0, resilient := sess.ResilienceStats()
	cache0, cached := sess.CacheStats()
	return start, func(report *PipelineReport) {
		report.Elapsed = time.Since(start)
		sub1, done1, busy1 := sess.exec.Stats()
		report.Executor = ExecutorStats{
			Submitted: sub1 - sub0,
			Completed: done1 - done0,
			Busy:      time.Duration(busy1 - busy0),
		}
		if resilient {
			storage1, _ := sess.ResilienceStats()
			delta := storage1.Delta(storage0)
			report.Storage = &delta
		}
		if cached {
			cache1, _ := sess.CacheStats()
			delta := cache1.Delta(cache0)
			report.Cache = &delta
		}
	}
}

// stageNames returns the report label of every stage, in graph order.
func (p *Pipeline) stageNames() []string {
	names := make([]string, len(p.stages))
	for i, st := range p.stages {
		names[i] = st.name
	}
	return names
}

// sourceColumns picks, in manifest order, the columns a Read source fetches:
// every one before a Write sink, which stores them all, and otherwise only
// those a stage or the sink reads. A column the graph computes (results,
// after Align) is never in the manifest, so it is never fetched.
func (p *Pipeline) sourceColumns(all []string) []string {
	var reads []string
	for _, st := range p.stages[1:] {
		if st.reads == nil {
			return all
		}
		reads = append(reads, st.reads...)
	}
	return slices.DeleteFunc(slices.Clone(all), func(c string) bool { return !slices.Contains(reads, c) })
}

// writeBack ends the one-shot Align and MarkDuplicates and
// Session.AlignDistributed: it stores the stream's results column into the
// source dataset, next to the columns it was computed from, and registers
// the column when it is new — or, when a new column fails to land, deletes
// it again, so a failed Align leaves the dataset as it found it
// (agd.AddColumn).
func (p *Pipeline) writeBack() *Pipeline {
	return p.add(stage{name: "write-back", dataset: p.stages[0].dataset, reads: []string{agd.ColResults}, drain: func(r *run, in *agd.GroupStream) (uint64, error) {
		sess, m := p.sess, r.src.Manifest
		sess.invalidateDataset(m.Name)
		out, err := agd.AddColumn(sess.store, m, agd.ColResults, func() error {
			err := agd.WriteColumn(r.Ctx, in, sess.store, m, agd.ColResults, agd.Codec{Exec: sess.exec})
			if a := r.Align; err == nil && a != nil {
				// The stage stopped its clock at the last group aligned; the
				// run ends when the last results blob is stored.
				a.Elapsed = time.Since(r.start)
				a.BasesPerSec = float64(a.Bases) / a.Elapsed.Seconds()
			}
			return err
		})
		if err != nil {
			return 0, err
		}
		r.report.Manifest = out
		sess.rememberManifest(m.Name, out)
		return out.NumRecords(), nil
	}})
}

// poolWindow sizes the builder pool of the stage at index i: one set being
// filled, plus (depth+1) per downstream edge — at pumpDepth, one queued group
// and one in the consumer's hand — across consecutive passthrough stages
// (which keep the producing stage's sets checked out beyond their own edge).
// An undersized window would block the producer (safe back-pressure, wasted
// overlap); this window never blocks. A serial run (depth 0) has no edges:
// each stage's one set is released before the next pull.
func (p *Pipeline) poolWindow(i, depth int) int {
	if depth == 0 {
		return 1
	}
	w := 1
	for j := i; j < len(p.stages)-1; j++ {
		w += depth + 1
		if !p.stages[j+1].passthrough {
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
	start, measured := p.measure()
	r := &run{Env: cluster.Env{Exec: p.sess.exec, Window: p.poolWindow(0, depth)}, report: report, start: start}
	var err error
	if r.src, err = p.Validate(); err != nil {
		return nil, err
	}
	stream, err := p.stages[0].open(r)
	if err != nil {
		return nil, err
	}
	names := p.stageNames()
	p.progress.init(names)

	// One stats slot per stage, written only by the goroutine pulling that
	// stage's output; the pump Wait in stop orders the final reads.
	pumps := dataflow.NewPumps(ctx)
	r.Ctx = pumps.Context()
	var stats []*edgeStats
	var edges []*agd.BoundedEdge
	link := func(s *agd.GroupStream, setup time.Duration) *agd.GroupStream {
		e := &edgeStats{setup: setup.Nanoseconds()}
		s = instrumented(s, e, p.progress.slot(len(stats)))
		stats = append(stats, e)
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
	for i, st := range p.stages[1 : len(p.stages)-1] {
		// A barrier stage's eager phase (sort's staging + run sorts) runs at
		// construction, before any Next: it is charged to the stage as setup.
		t0 := time.Now()
		r.Window = p.poolWindow(i+1, depth)
		out, err := st.Build(&r.Env, stream)
		if err != nil {
			return nil, stop(err)
		}
		stream = link(out, time.Since(t0))
	}

	// The sink has no output stream to instrument: its slot holds its wall
	// and what it consumed.
	t0 := time.Now()
	n, err := p.stages[len(p.stages)-1].drain(r, stream)
	sink := &edgeStats{nanos: time.Since(t0).Nanoseconds(), records: n}
	if err := stop(err); err != nil {
		if r.src != nil && ctx.Err() == nil {
			err = filteredOut(err, r.Filtered, r.src.Manifest)
		}
		return nil, err
	}
	sink.groups = stats[len(stats)-1].groups
	c := r.Counts()
	report.Records, report.Align, report.Dups, report.Filtered = n, r.Align, c.Dups, c.Filtered
	p.progress.finish(n, sink.groups)
	measured(report)

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

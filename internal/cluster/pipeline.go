package cluster

import (
	"context"
	"fmt"
	"slices"

	"persona/internal/agd"
	"persona/internal/agdsort"
	"persona/internal/core"
	"persona/internal/dataflow"
	"persona/internal/filter"
	"persona/internal/markdup"
	"persona/internal/shuffle"
	"persona/internal/storage"
)

// The distributed pipeline: a single-node Pipeline's stages across N
// workers. A plan with a Sort splits at it: the stages before the Sort run
// in the map tasks, the stages after it in the reduce tasks, and the
// shuffle between them is the sort, a three-phase sample sort coordinated
// by a PhaseServer. MarkDuplicates declares a halo (PipelinePlan.Halo).
//
//	map:     each task runs the map stages over a batch of source chunks
//	         (the single-node sort's staging batch, so a run holds the rows
//	         of that sort's in-memory run) and stores one sorted run, acking
//	         its equi-depth key samples and the halo span back (SAMPLE);
//	shuffle: the coordinator pools the samples into global key-range cuts
//	         (CUTS) and opens the held phase; each task then cuts its run
//	         at the splitters and hands every fragment, and the halo below
//	         each cut, to its owning partition under <tmp>/part<k>/ (SHUFFLE);
//	reduce:  each task runs the single-node pipeline's tail over one
//	         partition: the sort's merge stream over the partition's
//	         fragments (the same heap and tie rules, over splitter-aligned
//	         cuts, so concatenating the partitions reproduces the single
//	         merge's row order exactly), the reduce stages, and the dataset
//	         sink writing the chunks — and no manifest — of <out>/part<k>.
//
// Every task is leased, heartbeat-guarded and re-dealt on worker death or
// straggling; task outputs are deterministic, deterministically-named
// blobs, so re-execution is idempotent. That is also why a failed task
// deletes nothing: a straggler past its lease runs beside the attempt its
// task was re-dealt to, under the same names, so what a failed reduce stored
// stays (agd.WriteChunks) until the next attempt overwrites it with the same
// bytes. The coordinator stitches the partitions' chunk entries into the one
// manifest of the ordered output dataset and aggregates the cluster report.
//
// A plan without a Sort is the map phase alone: each task runs every stage
// over one source chunk and ends as a reduce does, writing partition <b> of
// the output dataset, which the coordinator stitches in chunk order. With
// no output dataset the task stores the column its stages add in the
// source's chunk b instead, and the coordinator registers the column at the
// end: that is Align's plan, the paper's distributed alignment (§5.2).

// Task phases of a distributed pipeline run.
const (
	phaseMap = iota
	phaseShuffle
	phaseReduce
)

// A Stage is one step of a pipeline as a map or reduce task runs it: a
// stage of the single-node Pipeline, built afresh in every task.
type Stage struct {
	// Adds lists the columns the stage appends to its rows.
	Adds []string
	// Build returns the stage's stream over in.
	Build func(e *Env, in *agd.GroupStream) (*agd.GroupStream, error)
}

// An Env is what a stage is built in: one task of a distributed run, or a
// whole single-node run. The align, mark and filter stages leave their
// statistics in it, live while their streams run.
type Env struct {
	Ctx  context.Context
	Exec *dataflow.Executor
	// Window sizes the stage's output builder pool: how many of its groups
	// may be in flight, each valid until its Release. Every task leaves it
	// 0, which is one set, released before the next pull.
	Window int
	// Halo holds, in a reduce task of a plan with a Halo, the key fields
	// of the rows just below the partition's cut (none in partition 0).
	Halo []*agd.Chunk

	Align    *core.AlignReport
	Dups     *markdup.Stats
	Filtered *filter.Stats
}

// build runs stages over in, in order, each built in e. On failure it
// returns the stream the failed stage was handed, which the caller closes.
func (e *Env) build(in *agd.GroupStream, stages []Stage) (*agd.GroupStream, error) {
	for _, st := range stages {
		out, err := st.Build(e, in)
		if err != nil {
			return in, err
		}
		in = out
	}
	return in, nil
}

// Counts returns what the stages built in e have marked and filtered.
func (e *Env) Counts() (c shuffle.Counts) {
	if e.Dups != nil {
		c.Dups = *e.Dups
	}
	if e.Filtered != nil {
		c.Filtered = *e.Filtered
	}
	return c
}

// tally adds the bases the task's stages aligned to rep and returns the
// rest of what they counted, for the task's ack payload.
func (e *Env) tally(rep *NodeReport) shuffle.Counts {
	if e.Align != nil {
		rep.Bases += e.Align.Bases
	}
	return e.Counts()
}

// PipelinePlan declares a distributed run: a dataset source, the stages
// before the Sort, the Sort's key, the stages after it, and a materialized
// output dataset the caller exports or keeps. Without a Sort every stage is
// a map stage, and without an output dataset too, the plan writes back.
type PipelinePlan struct {
	// Dataset names the AGD input in the shared store.
	Dataset string
	// Manifest is Dataset's manifest if the caller has read it; nil reads it.
	Manifest *agd.Manifest
	// Columns lists the source columns the map tasks open, in manifest
	// order: those a single-node Read of the same stages opens. Nil opens
	// every manifest column.
	Columns []string
	// Map lists the stages each map task runs over its source chunks.
	Map []Stage
	// Sort is the key the shuffle ranges over; nil makes the plan map-only,
	// one map task per source chunk and no shuffle or reduce.
	Sort *agdsort.Key
	// Reduce lists the stages each reduce task runs over its partition (a
	// plan with a Sort only, as is Halo).
	Reduce []Stage
	// Halo is set when the first reduce stage's rows reach across a
	// partition cut (MarkDuplicates after a location sort). It returns, for
	// one map task, the span of a row's key field; the largest span sizes
	// the halo of rows below each cut that the stage is built over
	// (Env.Halo).
	Halo func() func(keyField []byte) (int64, error)
	// OutName names the output dataset; partition k's chunks are written
	// under OutName/part<k>/ and stitched into one manifest at OutName. Its
	// chunks are gzip like any dataset's, unless Staging is set. Empty, in a
	// map-only plan, writes the one column the map stages add back into
	// Dataset, registered in its manifest once every chunk's blob is stored.
	OutName string
	// Staging marks the output as a staging area that the caller reads once
	// and then deletes, as an export does: the reduce stores its every
	// column raw (CompressNone), since that one read would only inflate
	// what the reduce deflated.
	Staging bool
	// TempPrefix is the namespace for runs, pieces and halos, swept after a
	// successful run. Default "cluster/<dataset>/tmp".
	TempPrefix string
}

// PipelineResult is a completed distributed pipeline run.
type PipelineResult struct {
	// Report is the cluster-level accounting (nodes, shuffle bytes, skew,
	// degradation).
	Report *Report
	// Manifest is the stitched, ordered output dataset. When no row reached
	// the output it has no chunks and is not stored.
	Manifest *agd.Manifest
	// Counts carries the marking and filtering statistics summed over the
	// tasks.
	shuffle.Counts
}

func (p *PipelinePlan) applyDefaults() {
	if p.TempPrefix == "" {
		p.TempPrefix = "cluster/" + p.Dataset + "/tmp"
	}
}

// chunksPerTask is how many source chunks one map task reads: one in a
// map-only plan, else the single-node sort's staging batch, so that a run
// holds the rows of that sort's in-memory run.
func (p *PipelinePlan) chunksPerTask() int {
	if p.Sort == nil {
		return 1
	}
	return agdsort.DefaultChunksPerSuperchunk
}

// columns returns cols followed by the columns stages add.
func columns(cols []string, stages []Stage) []string {
	cols = slices.Clone(cols)
	for _, st := range stages {
		cols = append(cols, st.Adds...)
	}
	return cols
}

// RunPipeline executes a fused pipeline across cfg.Nodes in-process workers
// against shared storage: phased task dealing over a PhaseServer, a
// key-range shuffle between the map and the reduce stages when the plan
// sorts, and a stitched output manifest, or the source's with the column a
// write-back plan adds. Output rows are byte-identical to the single-node
// pipeline of the same stages for any node count. Worker death
// degrades the run (tasks re-dealt to survivors, bounded by
// MaxChunkAttempts); permanent storage errors and server aborts fail it.
// Temp blobs under plan.TempPrefix are swept on success, degraded or not.
func RunPipeline(ctx context.Context, store storage.Store, plan PipelinePlan, cfg Config) (*PipelineResult, error) {
	cfg.applyDefaults()
	plan.applyDefaults()

	m := plan.Manifest
	if m == nil {
		var err error
		if m, err = agd.ReadManifest(store, plan.Dataset); err != nil {
			return nil, fmt.Errorf("cluster: open dataset %q: %w", plan.Dataset, err)
		}
	}
	ds := agd.OpenManifest(store, m)
	if plan.Columns == nil {
		plan.Columns = m.Columns
	}
	cols := columns(plan.Columns, plan.Map)
	added := cols[len(plan.Columns):]
	switch {
	case len(m.Chunks) == 0:
		return nil, fmt.Errorf("cluster: dataset %q has no chunks", plan.Dataset)
	case plan.Sort != nil && agdsort.KeyColumn(cols, *plan.Sort) < 0:
		return nil, fmt.Errorf("cluster: dataset %q has no %s key column", plan.Dataset, *plan.Sort)
	case plan.OutName == "" && plan.Sort != nil:
		return nil, fmt.Errorf("cluster: pipeline needs an output dataset name")
	case plan.OutName == "" && (len(added) != 1 || m.HasColumn(added[0])):
		return nil, fmt.Errorf("cluster: cannot write %q back into dataset %q, whose columns are %q", added, plan.Dataset, m.Columns)
	}

	numBatches := (len(m.Chunks) + plan.chunksPerTask() - 1) / plan.chunksPerTask()
	parts := cfg.Nodes

	phases, held, last := []int{numBatches, numBatches, parts}, []int{phaseShuffle}, phaseReduce
	if plan.Sort == nil {
		phases, held, last = phases[:1], nil, phaseMap
	}
	srv, err := NewPhaseServer(phases, held, cfg.ServerOptions)
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Cut selection: once every map task has acked its run summary, pool
	// the samples into global splitters, publish them and open the held
	// shuffle phase. A failure here poisons the run — without cuts the
	// barrier would never lift.
	selectCuts := func() {
		select {
		case <-srv.PhaseDone(phaseMap):
		case <-runCtx.Done():
			return
		}
		summaries := make([]shuffle.RunSummary, 0, numBatches)
		for _, payload := range srv.Payloads(phaseMap) {
			var sum shuffle.RunSummary
			if err := shuffle.Decode(payload, &sum); err != nil {
				srv.Abort(fmt.Sprintf("bad run summary: %v", err))
				return
			}
			summaries = append(summaries, sum)
		}
		cuts, err := shuffle.SelectCuts(summaries, parts, plan.Halo != nil)
		if err != nil {
			srv.Abort(err.Error())
			return
		}
		payload, err := shuffle.Encode(cuts)
		if err != nil {
			srv.Abort(err.Error())
			return
		}
		srv.SetCuts(payload)
		srv.Open(phaseShuffle)
	}
	if plan.Sort != nil {
		go selectCuts()
	}

	res := &PipelineResult{}
	nodes := func() (err error) {
		res.Report, err = runNodes(runCtx, srv, &cfg, func(ctx context.Context, w *worker) error {
			return pipelineNode(ctx, w, store, ds, &plan, cols, parts, numBatches)
		})
		return err
	}
	if plan.OutName == "" {
		// runNodes returns once every worker has, so no Put is in flight
		// when a failed run's blobs of the added column are deleted.
		if res.Manifest, err = agd.AddColumn(store, m, added[0], nodes); err != nil {
			return nil, err
		}
	} else if err := nodes(); err != nil {
		return nil, err
	}

	// Shuffle and stage accounting from the authoritative first-win task
	// payloads (node reports can double-count re-executed work).
	count := func(c shuffle.Counts) {
		res.Dups.Reads += c.Dups.Reads
		res.Dups.Duplicates += c.Dups.Duplicates
		res.Filtered.In += c.Filtered.In
		res.Filtered.Kept += c.Filtered.Kept
	}
	sortedBy := m.SortedBy
	if plan.Sort != nil {
		res.Report.Partitions, sortedBy = parts, plan.Sort.String()
		for i, payload := range srv.Payloads(phaseMap) {
			var sum shuffle.RunSummary
			if err := shuffle.Decode(payload, &sum); err != nil {
				return nil, fmt.Errorf("cluster: run summary %d: %w", i, err)
			}
			count(sum.Counts)
		}
		partRows := make([]int64, parts)
		for i, payload := range srv.Payloads(phaseShuffle) {
			var sr shuffle.ShuffleResult
			if err := shuffle.Decode(payload, &sr); err != nil {
				return nil, fmt.Errorf("cluster: shuffle result %d: %w", i, err)
			}
			res.Report.ShuffleBytes += sr.Bytes
			for k, n := range sr.PartRows {
				partRows[k] += n
			}
		}
		res.Report.PartitionSkew = shuffle.Skew(partRows)
	}

	// The last phase's tasks wrote the output, partition k by task k.
	payloads := srv.Payloads(last)
	partEntries := make([][]agd.ChunkEntry, len(payloads))
	for k, payload := range payloads {
		var pr shuffle.PartResult
		if err := shuffle.Decode(payload, &pr); err != nil {
			return nil, fmt.Errorf("cluster: partition result %d: %w", k, err)
		}
		count(pr.Counts)
		part := shuffle.PartDataset(plan.OutName, k)
		for i, n := range pr.ChunkRecords {
			partEntries[k] = append(partEntries[k], agd.ChunkEntry{
				Path:    agd.ChunkEntryPath(part, i),
				Records: n,
			})
		}
	}
	if plan.OutName != "" {
		stitched, err := agd.StitchManifest(plan.OutName, agd.SpecsForColumns(columns(cols, plan.Reduce)), partEntries, m.RefSeqs, sortedBy)
		if err != nil {
			return nil, err
		}
		if len(stitched.Chunks) > 0 {
			if err := agd.WriteManifest(store, stitched); err != nil {
				return nil, fmt.Errorf("cluster: write manifest %q: %w", plan.OutName, err)
			}
		}
		res.Manifest = stitched
	}

	// Sweep the shuffle namespace: runs, pieces and halos are all under the
	// temp prefix, deterministic names included the re-executed ones, so one
	// List covers everything any attempt wrote.
	if err := agd.DeletePrefix(store, plan.TempPrefix+"/"); err != nil {
		return nil, fmt.Errorf("cluster: sweep temp %q: %w", plan.TempPrefix, err)
	}
	return res, nil
}

// pipelineNode is one worker of a distributed pipeline run: a task loop
// over the phase server's phases, three or the map phase alone. A task borrows its run builder,
// chunks and encode buffers from the process-wide pools of the packages
// that define them, and gives them back when it is done with them.
func pipelineNode(ctx context.Context, w *worker, store storage.Store, ds *agd.Dataset, plan *PipelinePlan, cols []string, parts, numBatches int) error {
	client, rep := w.client, &w.rep
	var cuts *shuffle.Cuts
	for {
		phase, idx, ok, err := w.lease(ctx)
		if err != nil {
			return err
		}
		if !ok {
			return nil // every phase drained: the server said DONE
		}

		var payload string
		switch phase {
		case phaseMap:
			payload, err = runMapTask(ctx, store, ds, plan, w.exec, idx, rep)
		case phaseShuffle:
			if cuts == nil {
				tok, ok, cerr := client.Cuts(ctx.Done())
				if cerr != nil {
					return cerr
				}
				if !ok {
					return ctx.Err()
				}
				var c shuffle.Cuts
				if cerr := shuffle.Decode(tok, &c); cerr != nil {
					return cerr
				}
				cuts = &c
			}
			var bytes int64
			payload, bytes, err = runShuffleTask(ctx, store, plan, agdsort.KeyColumn(cols, *plan.Sort), cuts, idx, parts)
			rep.ShuffleBytes += bytes
		case phaseReduce:
			payload, err = runReduceTask(ctx, store, ds, plan, w.exec, cols, agdsort.KeyColumn(cols, *plan.Sort), idx, numBatches, rep)
		default:
			err = fmt.Errorf("cluster: unknown phase %d", phase)
		}
		if err != nil {
			return err
		}
		if err := client.AckTask(phase, idx, payload); err != nil {
			return err
		}
		rep.Chunks++
	}
}

// runMapTask runs the map stages over one batch of source chunks and stores
// their rows as one sorted run blob, returning the run-summary payload
// (rows, key samples, max halo span, what the stages counted); a map-only
// plan's task writes its one chunk's output instead (writeTask). The task's
// reads, and the bases it aligned, are added to rep.
func runMapTask(ctx context.Context, store storage.Store, ds *agd.Dataset, plan *PipelinePlan, exec *dataflow.Executor, b int, rep *NodeReport) (string, error) {
	lo := b * plan.chunksPerTask()
	hi := min(lo+plan.chunksPerTask(), len(ds.Manifest.Chunks))
	gs, err := ds.Groups(agd.StreamOptions{
		Columns: plan.Columns,
		Start:   lo,
		End:     hi,
		Codec:   agd.Codec{Exec: exec},
	})
	if err != nil {
		return "", err
	}
	env := &Env{Ctx: ctx, Exec: exec}
	stream, err := env.build(gs, plan.Map)
	defer func() { stream.Close() }()
	if err != nil {
		return "", err
	}
	if plan.Sort == nil {
		payload, err := writeTask(env, store, ds.Manifest, plan, stream, b, rep)
		if err == nil {
			rep.Reads += int64(ds.Manifest.Chunks[b].Records)
		}
		return payload, err
	}

	var maxSpan int64
	var visit func(key uint64, keyField []byte) error
	if plan.Halo != nil {
		span := plan.Halo()
		visit = func(_ uint64, keyField []byte) error {
			s, err := span(keyField)
			maxSpan = max(maxSpan, s)
			return err
		}
	}
	info, err := agdsort.BuildRun(ctx, store, stream, shuffle.RunBlob(plan.TempPrefix, b), *plan.Sort, hi-lo, shuffle.SampleCount, visit)
	if err != nil {
		return "", fmt.Errorf("cluster: map batch %d: %w", b, err)
	}
	rep.Reads += int64(info.Rows)
	sum := shuffle.RunSummary{Rows: info.Rows, MaxSpan: maxSpan, Counts: env.tally(rep)}
	for _, s := range info.Samples {
		sum.Samples = append(sum.Samples, shuffle.Sample{Key: s.Key, Full: s.Full})
	}
	return shuffle.Encode(sum)
}

// runShuffleTask cuts one sorted run at the global splitters and writes each
// fragment — and, for marking pipelines, each cut's halo — to its owning
// partition's blob prefix, and returns the shuffle-result payload.
func runShuffleTask(ctx context.Context, store storage.Store, plan *PipelinePlan, keyCol int, cuts *shuffle.Cuts, b, parts int) (string, int64, error) {
	runs, _, err := agdsort.FetchRuns(ctx, store, []string{shuffle.RunBlob(plan.TempPrefix, b)})
	if err != nil {
		return "", 0, fmt.Errorf("cluster: shuffle %d: %w", b, err)
	}
	run := runs[0]
	bounds := make([]int, 0, parts+1)
	bounds = append(bounds, 0)
	bounds = append(bounds, shuffle.CutPoints(run, keyCol, *plan.Sort, cuts.Splitters)...)
	bounds = append(bounds, run.NumRecords())

	res := shuffle.ShuffleResult{PartRows: make([]int64, parts)}
	put := func(name string, c *agd.Chunk) error {
		n, err := agd.PutChunk(store, name, c, agd.CompressNone)
		if err != nil {
			return fmt.Errorf("cluster: piece %q: %w", name, err)
		}
		res.Bytes += int64(n)
		return nil
	}
	for k := 0; k < parts; k++ {
		piece, err := shuffle.BuildPiece(run, bounds[k], bounds[k+1])
		if err != nil {
			return "", 0, err
		}
		if err := put(shuffle.PieceBlob(plan.TempPrefix, k, b), piece); err != nil {
			return "", 0, err
		}
		res.PartRows[k] = int64(bounds[k+1] - bounds[k])
	}
	if plan.Halo != nil {
		for k := 1; k < parts; k++ {
			lo, hi := shuffle.HaloRange(run, keyCol, *plan.Sort, cuts.Splitters[k-1], cuts.Halo)
			halo, err := shuffle.BuildHalo(run, keyCol, lo, hi)
			if err != nil {
				return "", 0, err
			}
			if err := put(shuffle.HaloBlob(plan.TempPrefix, k, b), halo); err != nil {
				return "", 0, err
			}
		}
	}
	payload, err := shuffle.Encode(res)
	return payload, res.Bytes, err
}

// runReduceTask runs the single-node pipeline's tail over one partition: the
// merge stream of its shuffled pieces, chunked like the source ds, the
// reduce stages (a halo stage over the partition's halos), and the dataset
// sink writing "<out>/part<k>" (writeTask).
func runReduceTask(ctx context.Context, store storage.Store, ds *agd.Dataset, plan *PipelinePlan, exec *dataflow.Executor, cols []string, keyCol, k, numBatches int, rep *NodeReport) (string, error) {
	blobs := func(name func(prefix string, k, b int) string) []string {
		names := make([]string, numBatches)
		for b := range names {
			names[b] = name(plan.TempPrefix, k, b)
		}
		return names
	}
	pieces, rows, err := agdsort.FetchRuns(ctx, store, blobs(shuffle.PieceBlob))
	if err != nil {
		return "", fmt.Errorf("cluster: partition %d: %w", k, err)
	}
	env := &Env{Ctx: ctx, Exec: exec}
	if k > 0 && plan.Halo != nil {
		if env.Halo, _, err = agdsort.FetchRuns(ctx, store, blobs(shuffle.HaloBlob)); err != nil {
			return "", fmt.Errorf("cluster: partition %d: %w", k, err)
		}
	}
	merger, err := agdsort.NewRunMerger(pieces, len(cols), keyCol, *plan.Sort)
	if err != nil {
		return "", err
	}
	meta := agd.StreamMeta{Columns: cols, NumRecords: uint64(rows), ChunkSize: int(ds.Manifest.Chunks[0].Records)}
	stream, err := env.build(agdsort.MergeStream(merger, meta, 0), plan.Reduce)
	defer func() { stream.Close() }()
	if err != nil {
		return "", err
	}
	return writeTask(env, store, ds.Manifest, plan, stream, k, rep)
}

// writeTask ends every task that writes output, a reduce task or a map-only
// plan's map task: the dataset sink writing partition k's chunks, and no
// manifest, under "<out>/part<k>" with their members compressed on e.Exec
// (stored raw for a staging output) — or, for a plan without an output
// dataset, the column the map stages add, stored in chunk k of m. It
// returns the partition-result payload the coordinator stitches from.
func writeTask(e *Env, store storage.Store, m *agd.Manifest, plan *PipelinePlan, stream *agd.GroupStream, k int, rep *NodeReport) (string, error) {
	codec := agd.Codec{Exec: e.Exec}
	var entries []agd.ChunkEntry
	var err error
	if plan.OutName == "" {
		err = agd.WriteColumn(e.Ctx, stream, store, m, columns(nil, plan.Map)[0], codec)
	} else {
		// An empty partition (equal splitters, a filter dropping its every
		// row) writes no chunk and contributes none to the stitch.
		entries, err = agd.WriteChunks(e.Ctx, stream, store, shuffle.PartDataset(plan.OutName, k), agd.WriterOptions{Codec: codec, Raw: plan.Staging})
	}
	if err != nil {
		return "", fmt.Errorf("cluster: partition %d: %w", k, err)
	}
	pr := shuffle.PartResult{Counts: e.tally(rep)}
	for _, entry := range entries {
		pr.ChunkRecords = append(pr.ChunkRecords, entry.Records)
	}
	return shuffle.Encode(&pr)
}

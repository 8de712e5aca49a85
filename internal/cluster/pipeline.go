package cluster

import (
	"context"
	"fmt"

	"persona/internal/agd"
	"persona/internal/agdsort"
	"persona/internal/align/snap"
	"persona/internal/core"
	"persona/internal/dataflow"
	"persona/internal/filter"
	"persona/internal/markdup"
	"persona/internal/shuffle"
	"persona/internal/storage"
)

// The distributed fused pipeline: the whole declarative stage graph
// (Read → Align → Sort → MarkDup → Filter → output dataset) executed across
// N workers, not just the Align stage. The run is a three-phase sample
// sort coordinated by a PhaseServer:
//
//	map:     each task aligns a batch of source chunks (the sort's staging
//	         batch size, so runs are byte-identical to the single-node
//	         spill of the same batch) and spills one sorted run, acking
//	         its equi-depth key samples back (SAMPLE);
//	shuffle: the coordinator pools the samples into global key-range cuts
//	         (CUTS) and opens the held phase; each task then cuts its run
//	         at the splitters and hands every fragment to its owning
//	         partition under <tmp>/part<k>/ blob prefixes (SHUFFLE);
//	reduce:  each task runs the single-node pipeline's tail over one
//	         partition, stage for stage: the sort's merge stream over the
//	         partition's fragments (the same heap and tie rules, over
//	         splitter-aligned cuts, so concatenating the partitions
//	         reproduces the single-merge row order exactly), the mark
//	         stage on a marker seeded from the cut halos, the filter
//	         stage, and the dataset sink writing the chunks — and no
//	         manifest — of dataset <out>/part<k>.
//
// Every task is leased, heartbeat-guarded and re-dealt on worker death or
// straggling, exactly like Align's chunks (the same runNodes scaffold); task
// outputs are deterministic, deterministically-named blobs, so re-execution
// is idempotent. That is also why a failed task deletes nothing: a straggler
// past its lease runs beside the attempt its task was re-dealt to, under the
// same names, so what a failed reduce stored stays (agd.WriteChunks) until
// the next attempt overwrites it with the same bytes. The coordinator
// stitches the partitions' chunk entries into the one manifest of the
// ordered output dataset and aggregates the cluster report.

// Task phases of a distributed pipeline run.
const (
	phaseMap = iota
	phaseShuffle
	phaseReduce
)

// PipelinePlan declares the fused stage graph of a distributed run. The
// shape mirrors the single-node Pipeline: a dataset source, optional Align,
// a mandatory Sort (the shuffle is the sort), optional MarkDup and Filter,
// and a materialized output dataset the caller exports or keeps.
type PipelinePlan struct {
	// Dataset names the AGD input in the shared store.
	Dataset string
	// Align appends a results column using Index (and Config.Aligner)
	// before sorting. Off, the dataset must already carry results when the
	// key or a later stage needs them.
	Align bool
	Index *snap.Index
	// By is the sort key the shuffle ranges over.
	By agdsort.Key
	// MarkDup flags duplicate reads (requires By == ByLocation, like the
	// single-node pipeline after a location sort).
	MarkDup bool
	// Filter, when non-nil, keeps only matching rows.
	Filter filter.Predicate
	// OutName names the output dataset; partition k's chunks are written
	// under OutName/part<k>/ and stitched into one manifest at OutName.
	OutName string
	// ChunkSize is records per output chunk; 0 follows the input dataset.
	ChunkSize int
	// ChunksPerBatch is how many source chunks one map task stages into a
	// run — the single-node sort's staging batch (default 8), which is what
	// keeps distributed runs byte-identical to its spills.
	ChunksPerBatch int
	// TempPrefix is the namespace for runs, pieces and halos, swept after a
	// successful run. Default "cluster/<dataset>/tmp".
	TempPrefix string
}

// PipelineResult is a completed distributed pipeline run.
type PipelineResult struct {
	// Report is the cluster-level accounting (nodes, shuffle bytes, skew,
	// degradation).
	Report *Report
	// Manifest is the stitched, ordered output dataset.
	Manifest *agd.Manifest
	// Rows is the output row count; Dups and Filtered carry the marking and
	// filtering statistics aggregated across partitions.
	Rows     uint64
	Dups     markdup.Stats
	Filtered filter.Stats
}

func (p *PipelinePlan) applyDefaults() {
	if p.ChunksPerBatch <= 0 {
		p.ChunksPerBatch = 8
	}
	if p.TempPrefix == "" {
		p.TempPrefix = "cluster/" + p.Dataset + "/tmp"
	}
}

// validatePlan checks the plan against the opened input, mirroring the
// single-node Pipeline.validate rules.
func validatePlan(plan *PipelinePlan, m *agd.Manifest) error {
	if plan.OutName == "" {
		return fmt.Errorf("cluster: pipeline needs an output dataset name")
	}
	if plan.Align {
		if plan.Index == nil {
			return fmt.Errorf("cluster: pipeline %q: align needs an index", plan.Dataset)
		}
		if m.HasColumn(agd.ColResults) {
			return fmt.Errorf("cluster: dataset %q already aligned", plan.Dataset)
		}
		if !m.HasColumn(agd.ColBases) {
			return fmt.Errorf("cluster: dataset %q: align needs a %q column", plan.Dataset, agd.ColBases)
		}
	} else if needsResults(plan) && !m.HasColumn(agd.ColResults) {
		return fmt.Errorf("cluster: dataset %q has no results column (align first)", plan.Dataset)
	}
	if plan.MarkDup && plan.By != agdsort.ByLocation {
		return fmt.Errorf("cluster: pipeline %q: markdup needs a location sort", plan.Dataset)
	}
	return nil
}

func needsResults(plan *PipelinePlan) bool {
	return plan.By == agdsort.ByLocation || plan.MarkDup || plan.Filter != nil
}

// planColumns returns the stream columns a run's rows carry: the manifest
// columns, plus the results column Align appends.
func planColumns(plan *PipelinePlan, m *agd.Manifest) []string {
	cols := append([]string(nil), m.Columns...)
	if plan.Align {
		cols = append(cols, agd.ColResults)
	}
	return cols
}

// RunPipeline executes a fused pipeline across cfg.Nodes in-process workers
// against shared storage: phased task dealing over a PhaseServer, key-range
// shuffle between map and reduce, per-partition merge→markdup→filter, and a
// stitched ordered output manifest. Output rows are byte-identical to the
// single-node pipeline of the same shape for any node count. Worker death
// degrades the run (tasks re-dealt to survivors, bounded by
// MaxChunkAttempts); permanent storage errors and server aborts fail it.
// Temp blobs under plan.TempPrefix are swept on success, degraded or not.
func RunPipeline(ctx context.Context, store storage.Store, plan PipelinePlan, cfg Config) (*PipelineResult, error) {
	cfg.applyDefaults()
	plan.applyDefaults()

	ds, err := agd.Open(store, plan.Dataset)
	if err != nil {
		return nil, fmt.Errorf("cluster: open dataset %q: %w", plan.Dataset, err)
	}
	m := ds.Manifest
	if err := validatePlan(&plan, m); err != nil {
		return nil, err
	}
	cols := planColumns(&plan, m)
	if agdsort.KeyColumn(cols, plan.By) < 0 {
		return nil, fmt.Errorf("cluster: dataset %q has no %s key column", plan.Dataset, plan.By)
	}
	if plan.ChunkSize <= 0 {
		plan.ChunkSize = int(m.Chunks[0].Records)
	}

	numBatches := (len(m.Chunks) + plan.ChunksPerBatch - 1) / plan.ChunksPerBatch
	parts := cfg.Nodes

	srv, err := NewPhaseServer([]int{numBatches, numBatches, parts}, []int{phaseShuffle}, cfg.serverOptions())
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
	go func() {
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
		cuts, err := shuffle.SelectCuts(summaries, parts, plan.MarkDup)
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
	}()

	report, err := runNodes(runCtx, srv, &cfg, func(ctx context.Context, w *worker) error {
		return pipelineNode(ctx, w, store, ds, &plan, cols, parts, numBatches)
	})
	if err != nil {
		return nil, err
	}
	report.Partitions = parts

	// Shuffle accounting from the authoritative first-win task payloads
	// (node reports can double-count re-executed work).
	partRows := make([]int64, parts)
	for i, payload := range srv.Payloads(phaseShuffle) {
		var sr shuffle.ShuffleResult
		if err := shuffle.Decode(payload, &sr); err != nil {
			return nil, fmt.Errorf("cluster: shuffle result %d: %w", i, err)
		}
		report.ShuffleBytes += sr.Bytes
		for k, n := range sr.PartRows {
			partRows[k] += n
		}
	}
	report.PartitionSkew = shuffle.Skew(partRows)

	res := &PipelineResult{Report: report}
	partEntries := make([][]agd.ChunkEntry, parts)
	for k, payload := range srv.Payloads(phaseReduce) {
		var pr shuffle.PartResult
		if err := shuffle.Decode(payload, &pr); err != nil {
			return nil, fmt.Errorf("cluster: partition result %d: %w", k, err)
		}
		res.Rows += pr.Rows
		res.Dups.Reads += pr.DupReads
		res.Dups.Duplicates += pr.Duplicates
		res.Filtered.In += pr.FilterIn
		res.Filtered.Kept += pr.FilterKept
		part := shuffle.PartDataset(plan.OutName, k)
		for i, n := range pr.ChunkRecords {
			partEntries[k] = append(partEntries[k], agd.ChunkEntry{
				Path:    agd.ChunkEntryPath(part, i),
				Records: n,
			})
		}
	}
	stitched, err := agd.StitchManifest(plan.OutName, agd.SpecsForColumns(cols), partEntries, m.RefSeqs, plan.By.String())
	if err != nil {
		return nil, err
	}
	if err := agd.WriteManifest(store, stitched); err != nil {
		return nil, fmt.Errorf("cluster: write manifest %q: %w", plan.OutName, err)
	}
	res.Manifest = stitched

	// Sweep the shuffle namespace: runs, pieces and halos are all under the
	// temp prefix, deterministic names included the re-executed ones, so one
	// List covers everything any attempt wrote.
	names, err := store.List(plan.TempPrefix + "/")
	if err != nil {
		return nil, fmt.Errorf("cluster: list temp %q: %w", plan.TempPrefix, err)
	}
	for _, name := range names {
		if err := store.Delete(name); err != nil {
			return nil, fmt.Errorf("cluster: sweep temp %q: %w", name, err)
		}
	}
	return res, nil
}

// pipelineNode is one worker of a distributed pipeline run: a task loop
// over the phase server's three phases.
func pipelineNode(ctx context.Context, w *worker, store storage.Store, ds *agd.Dataset, plan *PipelinePlan, cols []string, parts, numBatches int) error {
	client, cfg, rep := w.client, w.cfg, &w.rep
	keyCol := agdsort.KeyColumn(cols, plan.By)
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
			var rows int64
			payload, rows, err = runMapTask(ctx, store, ds, plan, cfg, w.exec, idx)
			rep.Reads += rows
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
			payload, bytes, err = runShuffleTask(ctx, store, plan, keyCol, cuts, idx, parts)
			rep.ShuffleBytes += bytes
		case phaseReduce:
			payload, err = runReduceTask(ctx, store, plan, cols, keyCol, idx, numBatches)
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

// runMapTask stages one batch of source chunks — aligned on the fly when the
// plan says so — into one sorted run blob, and returns the run-summary
// payload (rows, key samples, max signature span).
func runMapTask(ctx context.Context, store storage.Store, ds *agd.Dataset, plan *PipelinePlan, cfg *Config, exec *dataflow.Executor, b int) (string, int64, error) {
	lo := b * plan.ChunksPerBatch
	hi := lo + plan.ChunksPerBatch
	if hi > len(ds.Manifest.Chunks) {
		hi = len(ds.Manifest.Chunks)
	}
	gs, err := ds.Groups(agd.StreamOptions{
		Prefetch: cfg.Prefetch,
		Start:    lo,
		End:      hi,
		Codec:    agd.Codec{Exec: exec},
	})
	if err != nil {
		return "", 0, err
	}
	stream := gs
	defer func() { stream.Close() }()
	if plan.Align {
		out, _, err := core.AlignStream(core.AlignConfig{
			Index:     plan.Index,
			Aligner:   cfg.Aligner,
			Subchunks: cfg.Subchunks,
		}, exec, gs)
		if err != nil {
			return "", 0, err
		}
		stream = out
	}

	var mk *markdup.Marker
	var maxSpan int64
	var visit func(key uint64, keyField []byte) error
	if plan.MarkDup {
		mk = markdup.NewMarker(0)
		visit = func(_ uint64, keyField []byte) error {
			span, err := mk.Span(keyField)
			if err != nil {
				return err
			}
			if span > maxSpan {
				maxSpan = span
			}
			return nil
		}
	}
	info, err := agdsort.BuildRun(ctx, store, stream, shuffle.RunBlob(plan.TempPrefix, b), plan.By, shuffle.SampleCount, visit)
	if err != nil {
		return "", 0, fmt.Errorf("cluster: map batch %d: %w", b, err)
	}
	sum := shuffle.RunSummary{Rows: info.Rows, MaxSpan: maxSpan}
	for _, s := range info.Samples {
		sum.Samples = append(sum.Samples, shuffle.Sample{Key: s.Key, Full: s.Full})
	}
	payload, err := shuffle.Encode(sum)
	return payload, int64(info.Rows), err
}

// runShuffleTask cuts one sorted run at the global splitters and writes each
// fragment — and, for marking pipelines, each cut's halo — to its owning
// partition's blob prefix, returning the shuffle-result payload.
func runShuffleTask(ctx context.Context, store storage.Store, plan *PipelinePlan, keyCol int, cuts *shuffle.Cuts, b, parts int) (string, int64, error) {
	runs, _, err := agdsort.FetchRuns(ctx, store, []string{shuffle.RunBlob(plan.TempPrefix, b)})
	if err != nil {
		return "", 0, fmt.Errorf("cluster: shuffle %d: %w", b, err)
	}
	run := runs[0]
	bounds := make([]int, 0, parts+1)
	bounds = append(bounds, 0)
	bounds = append(bounds, shuffle.CutPoints(run, keyCol, plan.By, cuts.Splitters)...)
	bounds = append(bounds, run.NumRecords())

	res := shuffle.ShuffleResult{PartRows: make([]int64, parts)}
	put := func(name string, c *agd.Chunk) error {
		enc, err := agd.EncodeChunk(c, agd.CompressNone)
		if err != nil {
			return err
		}
		if err := store.Put(name, enc); err != nil {
			return fmt.Errorf("cluster: piece %q: %w", name, err)
		}
		res.Bytes += int64(len(enc))
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
	if plan.MarkDup {
		for k := 1; k < parts; k++ {
			lo, hi := shuffle.HaloRange(run, keyCol, plan.By, cuts.Splitters[k-1], cuts.Halo)
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
// merge stream of its shuffled pieces, the mark stage on a marker seeded from
// its halos, the filter stage, the dataset sink writing "<out>/part<k>". It
// returns the partition-result payload the coordinator stitches from.
func runReduceTask(ctx context.Context, store storage.Store, plan *PipelinePlan, cols []string, keyCol, k, numBatches int) (string, error) {
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
	merger, err := agdsort.NewRunMerger(pieces, len(cols), keyCol, plan.By)
	if err != nil {
		return "", err
	}
	meta := agd.StreamMeta{Columns: cols, NumRecords: uint64(rows), ChunkSize: plan.ChunkSize}
	stream := agdsort.MergeStream(merger, meta, 0, nil)
	defer func() { stream.Close() }()

	dups, kept := &markdup.Stats{}, &filter.Stats{}
	if plan.MarkDup {
		mk := markdup.NewMarker(0)
		dups = &mk.Stats
		if k > 0 {
			halos, _, err := agdsort.FetchRuns(ctx, store, blobs(shuffle.HaloBlob))
			if err != nil {
				return "", fmt.Errorf("cluster: partition %d: %w", k, err)
			}
			for _, halo := range halos {
				for r := 0; r < halo.NumRecords(); r++ {
					rec, err := halo.Record(r)
					if err == nil {
						err = mk.Observe(rec)
					}
					if err != nil {
						return "", err
					}
				}
			}
		}
		out, err := mk.Stream(stream, 0)
		if err != nil {
			return "", err
		}
		stream = out
	}
	if plan.Filter != nil {
		out, stats, err := filter.RunStream(stream, plan.Filter, 0)
		if err != nil {
			return "", err
		}
		stream, kept = out, stats
	}
	// An empty partition (equal splitters, a filter dropping its every row)
	// writes no chunk and contributes none to the stitch.
	entries, err := agd.WriteChunks(ctx, stream, store, shuffle.PartDataset(plan.OutName, k), agd.WriterOptions{})
	if err != nil {
		return "", fmt.Errorf("cluster: partition %d: %w", k, err)
	}
	pr := shuffle.PartResult{DupReads: dups.Reads, Duplicates: dups.Duplicates, FilterIn: kept.In, FilterKept: kept.Kept}
	for _, e := range entries {
		pr.ChunkRecords = append(pr.ChunkRecords, e.Records)
		pr.Rows += uint64(e.Records)
	}
	return shuffle.Encode(&pr)
}

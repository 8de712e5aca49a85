package agdsort

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"persona/internal/agd"
)

// SortStream is the sort: stream in, stream out, under composed pipelines
// and under Sort alike. It is a global barrier, so it cannot be fused record-
// to-record: phase 1 drains the input stream, staging superchunk batches in
// record arenas and spilling each sorted run to the store under
// opts.TempPrefix (the paper's §4.3 sort always materializes runs); phase 2
// feeds the next stage chunk-by-chunk from the heap merge of the runs. Spill
// blobs are deleted when the output stream is drained or closed.
func SortStream(ctx context.Context, store agd.BlobStore, in *agd.GroupStream, opts Options) (*agd.GroupStream, error) {
	keyCol := keyColumn(in.Meta.Columns, opts.By)
	if keyCol < 0 {
		if opts.By == ByLocation {
			return nil, fmt.Errorf("agdsort: stream has no results column to sort by")
		}
		return nil, fmt.Errorf("agdsort: stream has no metadata column")
	}
	if opts.ChunksPerSuperchunk <= 0 {
		opts.ChunksPerSuperchunk = 8
	}
	if opts.TempPrefix == "" {
		opts.TempPrefix = "agdsort.stream/tmp"
	}
	// Output is chunked like the source: after a selective filter the first
	// group's size is an arbitrary kept-row count, the fallback only.
	chunkSize := in.Meta.ChunkSize

	// Phase 1: drain the input, spilling one sorted superchunk per batch of
	// ChunksPerSuperchunk groups. Staging is sequential (the stream is
	// pull-based), but sorting and spilling a completed batch runs on
	// background workers so the next batch stages while the previous one
	// sorts.
	var (
		superNames []string
		batchCols  []*agd.RecordArena
		batchKeys  []sortEntry
		batchSize  int
		total      int
		wg         sync.WaitGroup
		sem        = make(chan struct{}, runtime.NumCPU())
		errs       = make(chan error, 1)
	)
	numCols := len(in.Meta.Columns)
	newBatch := func() {
		batchCols = make([]*agd.RecordArena, numCols)
		for i := range batchCols {
			batchCols[i] = agd.NewRecordArena(0, 0)
		}
		batchKeys = batchKeys[len(batchKeys):]
		batchSize = 0
	}
	spill := func() {
		name := fmt.Sprintf("%s/super-%06d", opts.TempPrefix, len(superNames))
		superNames = append(superNames, name)
		cols, keys := batchCols, batchKeys
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			sortKeys(cols[keyCol], keys, opts.By)
			if err := writeSuperchunk(store, name, cols, keys, &opts); err != nil {
				select {
				case errs <- err:
				default:
				}
			}
		}()
		newBatch()
	}
	fail := func(err error) (*agd.GroupStream, error) {
		wg.Wait()
		for _, sn := range superNames {
			store.Delete(sn)
		}
		return nil, err
	}
	newBatch()
	for {
		g, err := in.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail(err)
		}
		if len(g.Chunks) != numCols {
			g.Release()
			return fail(fmt.Errorf("agdsort: group %d has %d columns, stream declares %d", g.Index, len(g.Chunks), numCols))
		}
		if chunkSize <= 0 {
			chunkSize = g.NumRecords()
		}
		batchKeys, err = stageGroup(batchCols, batchKeys, g.Chunks, keyCol, opts.By, opts.ChunksPerSuperchunk)
		if err != nil {
			g.Release()
			return fail(err)
		}
		total += g.NumRecords()
		g.Release()
		batchSize++
		if batchSize >= opts.ChunksPerSuperchunk {
			spill()
		}
		select {
		case err := <-errs:
			return fail(err)
		default:
		}
	}
	if batchSize > 0 {
		spill()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return fail(err)
	default:
	}
	if total == 0 {
		return fail(fmt.Errorf("agdsort: stream has no records"))
	}
	if chunkSize <= 0 {
		chunkSize = agd.DefaultChunkSize
	}

	// Phase 2: heap-merge the spilled runs into an output stream. The merge
	// needs every run resident before it can emit a single row.
	runs, mergedTotal, err := fetchRuns(ctx, store, superNames)
	if err != nil {
		return fail(err)
	}
	if mergedTotal != total {
		return fail(fmt.Errorf("agdsort: spilled %d rows, staged %d", mergedTotal, total))
	}
	merger, err := NewRunMerger(runs, numCols, keyCol, opts.By)
	if err != nil {
		return fail(err)
	}
	specs := agd.SpecsForColumns(in.Meta.Columns)
	ms := &mergeGroupStream{
		store:     store,
		names:     superNames,
		merger:    merger,
		specs:     specs,
		chunkSize: chunkSize,
		total:     total,
	}
	if opts.Pipelining > 1 {
		ms.pool = agd.NewBuilderPool(opts.Pipelining, specs)
	} else {
		ms.fixed = &agd.BuilderSet{Builders: make([]*agd.ChunkBuilder, numCols)}
		for i, spec := range specs {
			ms.fixed.Builders[i] = agd.NewChunkBuilder(spec.Type, 0)
		}
	}
	meta := agd.StreamMeta{
		Columns:    in.Meta.Columns,
		RefSeqs:    in.Meta.RefSeqs,
		SortedBy:   opts.By.String(),
		NumRecords: uint64(total),
		ChunkSize:  chunkSize,
	}
	// The stop hook sweeps the spill blobs even when a downstream stage
	// dies mid-merge (an early Close never reaches the EOF-path cleanup),
	// and closes the drained input so teardown keeps cascading upstream.
	out := agd.NewGroupStream(meta, ms.next, func() {
		ms.cleanup()
		in.Close()
	})
	out.Owned = ms.pool != nil
	return out, nil
}

// mergeGroupStream emits the heap merge of the spilled runs as row groups of
// chunkSize records. Serial pulls build into a reused builder set (each
// group valid until the next one is requested); pumped sorts
// (Options.Pipelining > 1) draw from a bounded pool so queued groups stay
// valid until Release.
type mergeGroupStream struct {
	store     agd.BlobStore
	names     []string
	merger    *RunMerger
	fixed     *agd.BuilderSet
	pool      *agd.BuilderPool
	specs     []agd.ColumnSpec
	chunkSize int
	total     int
	emitted   int
	chunkIdx  int

	cleanOnce sync.Once
	cleanMu   sync.Mutex
	cleanErr  error
}

func (ms *mergeGroupStream) next(ctx context.Context) (*agd.RowGroup, error) {
	if ms.emitted >= ms.total {
		ms.cleanup()
		ms.cleanMu.Lock()
		err := ms.cleanErr
		ms.cleanErr = nil // report a failed sweep once, from the EOF pull
		ms.cleanMu.Unlock()
		if err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	rows := ms.total - ms.emitted
	if rows > ms.chunkSize {
		rows = ms.chunkSize
	}
	set := ms.fixed
	if ms.pool != nil {
		var err error
		if set, err = ms.pool.Get(ctx, uint64(ms.emitted)); err != nil {
			return nil, err
		}
	}
	builders := set.Builders
	for i, spec := range ms.specs {
		builders[i].Reset(spec.Type, uint64(ms.emitted))
	}
	// Run rows hold every column in stored representation (bases stay
	// compacted), so the merge moves bytes without re-encoding.
	for r := 0; r < rows; r++ {
		fields, ok, err := ms.merger.Next()
		if err == nil && !ok {
			err = fmt.Errorf("agdsort: merge ran out of rows")
		}
		if err != nil {
			if ms.pool != nil {
				ms.pool.Put(set)
			}
			return nil, err
		}
		for i, f := range fields {
			builders[i].Append(f)
		}
	}
	var release func()
	if ms.pool != nil {
		put := set
		release = func() { ms.pool.Put(put) }
	}
	g := agd.NewRowGroup(ms.chunkIdx, 0, set.Chunks(), release)
	ms.chunkIdx++
	ms.emitted += rows
	return g, nil
}

// cleanup deletes the spill blobs exactly once — idempotent and safe under
// a teardown Close racing the merge's own EOF path. A failed delete is
// reported from the final next call.
func (ms *mergeGroupStream) cleanup() {
	ms.cleanOnce.Do(func() {
		for _, name := range ms.names {
			if err := ms.store.Delete(name); err != nil {
				ms.cleanMu.Lock()
				if ms.cleanErr == nil {
					ms.cleanErr = err
				}
				ms.cleanMu.Unlock()
			}
		}
	})
}

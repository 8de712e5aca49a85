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
	sweep := func() error {
		var first error
		for _, name := range superNames {
			if err := store.Delete(name); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	fail := func(err error) (*agd.GroupStream, error) {
		wg.Wait()
		sweep()
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
	runs, mergedTotal, err := FetchRuns(ctx, store, superNames)
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
	meta := agd.StreamMeta{
		Columns:    in.Meta.Columns,
		RefSeqs:    in.Meta.RefSeqs,
		SortedBy:   opts.By.String(),
		NumRecords: uint64(total),
		ChunkSize:  chunkSize,
	}
	// The end of the output — drained or closed early — closes the drained
	// input too, so teardown keeps cascading upstream.
	return MergeStream(merger, meta, opts.Pipelining, func() error {
		in.Close()
		return sweep()
	}), nil
}

// MergeStream emits merger's rows — meta.NumRecords of them, in meta.Columns —
// as row groups of meta.ChunkSize records: the sort's output, and the input of
// a cluster reduce merging one partition's pieces. Serial pulls (pipelining
// ≤ 1) build into one reused builder set, each group valid until the next is
// requested; pipelining > 1 draws from a bounded pool of that many sets, so a
// pumped edge can queue groups that stay valid until Release.
//
// sweep, when non-nil, runs once — when the merge is drained, or on an early
// Close (a downstream stage dying mid-merge never reaches EOF) — and a pull
// that would return io.EOF reports its error instead; the sort deletes its
// spill blobs there.
func MergeStream(merger *RunMerger, meta agd.StreamMeta, pipelining int, sweep func() error) *agd.GroupStream {
	if sweep == nil {
		sweep = func() error { return nil }
	}
	specs := agd.SpecsForColumns(meta.Columns)
	ms := &mergeGroupStream{
		merger:    merger,
		specs:     specs,
		chunkSize: meta.ChunkSize,
		total:     int(meta.NumRecords),
		sweep:     sync.OnceValue(sweep),
	}
	if pipelining > 1 {
		ms.pool = agd.NewBuilderPool(pipelining, specs)
	} else {
		ms.fixed = &agd.BuilderSet{Builders: make([]*agd.ChunkBuilder, len(specs))}
		for i, spec := range specs {
			ms.fixed.Builders[i] = agd.NewChunkBuilder(spec.Type, 0)
		}
	}
	out := agd.NewGroupStream(meta, ms.next, func() { ms.sweep() })
	out.Owned = ms.pool != nil
	return out
}

// mergeGroupStream is the state behind MergeStream.
type mergeGroupStream struct {
	merger    *RunMerger
	fixed     *agd.BuilderSet
	pool      *agd.BuilderPool
	specs     []agd.ColumnSpec
	chunkSize int
	total     int
	emitted   int
	chunkIdx  int
	sweep     func() error // once: the EOF pull, or a teardown Close racing it
}

func (ms *mergeGroupStream) next(ctx context.Context) (*agd.RowGroup, error) {
	if ms.emitted >= ms.total {
		if err := ms.sweep(); err != nil {
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

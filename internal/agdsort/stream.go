package agdsort

import (
	"context"
	"fmt"

	"persona/internal/agd"
)

// SortStream is the sort: stream in, stream out, its output chunked like its
// input. It is a global barrier, so it cannot be fused record-to-record:
// phase 1 drains the input stream, staging superchunk batches in
// record arenas and framing each sorted batch as one run in memory; phase 2
// feeds the next stage chunk-by-chunk from the heap merge of the runs. Each
// full batch is sorted on the calling goroutine before the next group is
// pulled; in a pumped pipeline the stages above keep producing meanwhile.
//
// The runs are never stored. The merge needs every run resident before it
// can emit a single row, so a run written to the store and fetched back
// would bound no memory; it would only add an encode, a Put, a Get, a
// checksum and a Delete per run. The input is closed once it is drained.
//
// store is unused; it stays only because the benchmark (bench/) passes one.
func SortStream(ctx context.Context, store agd.BlobStore, in *agd.GroupStream, opts Options) (*agd.GroupStream, error) {
	keyCol := KeyColumn(in.Meta.Columns, opts.By)
	if keyCol < 0 {
		if opts.By == ByLocation {
			return nil, fmt.Errorf("agdsort: stream has no results column to sort by")
		}
		return nil, fmt.Errorf("agdsort: stream has no metadata column")
	}
	if opts.ChunksPerSuperchunk <= 0 {
		opts.ChunksPerSuperchunk = DefaultChunksPerSuperchunk
	}
	// Output is chunked like the source: after a selective filter the first
	// group's size is an arbitrary kept-row count, the fallback only.
	chunkSize := in.Meta.ChunkSize

	// Phase 1: drain the input through a run builder, framing one sorted
	// run per batch of ChunksPerSuperchunk groups. A run copies its rows out
	// of the builder, so every batch reuses its arenas and keys. The builder
	// and, after the merge's last row, the runs' builders go back to pools.
	var (
		b       = runBuilders.Get()
		runs    []*agd.Chunk
		framed  []*agd.ChunkBuilder
		batch   int // groups staged into the builder
		runRows int // rows framed into runs
	)
	flush := func() {
		b.sort(keyCol, opts.By)
		framed = append(framed, b.frameRun())
		run := framed[len(framed)-1].Chunk()
		runs = append(runs, run)
		runRows += run.NumRecords()
		batch = 0
	}
	total, err := b.drain(ctx, in, keyCol, opts.By, opts.ChunksPerSuperchunk, func(g *agd.RowGroup) {
		if chunkSize <= 0 {
			chunkSize = g.NumRecords()
		}
		if batch++; batch == opts.ChunksPerSuperchunk {
			flush()
		}
	})
	if err != nil {
		return nil, err
	}
	if batch > 0 {
		flush()
	}
	runBuilders.Put(b)
	if total == 0 {
		return nil, fmt.Errorf("agdsort: stream has %w", agd.ErrNoRecords)
	}
	if runRows != total {
		return nil, fmt.Errorf("agdsort: framed %d rows into runs, staged %d", runRows, total)
	}
	if chunkSize <= 0 {
		chunkSize = agd.DefaultChunkSize
	}
	in.Close()

	// Phase 2: heap-merge the runs into an output stream.
	merger, err := NewRunMerger(runs, len(in.Meta.Columns), keyCol, opts.By)
	if err != nil {
		return nil, err
	}
	merger.done = func() {
		for _, c := range framed {
			c.Recycle()
		}
	}
	meta := agd.StreamMeta{
		Columns:    in.Meta.Columns,
		RefSeqs:    in.Meta.RefSeqs,
		SortedBy:   opts.By.String(),
		NumRecords: uint64(total),
		ChunkSize:  chunkSize,
	}
	return MergeStream(merger, meta, opts.Pipelining), nil
}

// MergeStream emits merger's rows — meta.NumRecords of them, in meta.Columns —
// as row groups of meta.ChunkSize records: the sort's output, and the input of
// a cluster reduce merging one partition's pieces. Each group is built in a
// set from a pool of pipelining sets (minimum 1) and stays valid until its
// Release.
func MergeStream(merger *RunMerger, meta agd.StreamMeta, pipelining int) *agd.GroupStream {
	left := int(meta.NumRecords)
	return agd.FillStream(meta, agd.SpecsForColumns(meta.Columns), pipelining, func(b []*agd.ChunkBuilder) (int, error) {
		rows := min(left, meta.ChunkSize)
		// Run rows hold every column in stored representation (bases stay
		// packed), so the merge moves bytes without re-encoding.
		for r := 0; r < rows; r++ {
			fields, ok, err := merger.Next()
			if err == nil && !ok {
				err = fmt.Errorf("agdsort: merge ran out of rows")
			}
			if err != nil {
				return r, err
			}
			for i, f := range fields {
				b[i].Append(f)
			}
		}
		if left -= rows; left == 0 && merger.done != nil {
			merger.done() // no row of the runs is read again
			merger.done = nil
		}
		return rows, nil
	})
}

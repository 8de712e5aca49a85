package fastq

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"persona/internal/agd"
)

// ImportOptions configures FASTQ → AGD conversion.
type ImportOptions struct {
	// ChunkSize is records per AGD chunk (default agd.DefaultChunkSize).
	ChunkSize int
	// RefSeqs, if known, is recorded in the manifest.
	RefSeqs []agd.RefSeq
	// Pipelining (ImportStream only; Import sets it) is how many parsed
	// groups may be in flight at once. ≤ 1 keeps the serial pull contract
	// (reused builders, each group valid until the next); > 1 draws builders
	// from a bounded pool of that size so a pumped edge can queue groups.
	Pipelining int
	// Shards (ImportStream only) rotates group shard affinity over that many
	// executor shards, so downstream sharded submissions (align subchunks)
	// spread instead of landing on shard 0. 0 leaves every group on shard 0.
	Shards int
}

// Import converts a FASTQ stream into an AGD dataset (the paper's import
// utility, measured at 360 MB/s in §5.7): ImportStream into the dataset sink.
// Scanned fields flow zero-copy from the scanner's reused buffers into chunk
// builders, one more set of them than the sink has store workers, so
// completed chunks are compressed and stored while parsing continues and
// steady-state import performs no per-read allocation. It returns the
// manifest and the number of reads imported. Cancellation and deadline of
// ctx are checked once per chunk.
func Import(ctx context.Context, store agd.BlobStore, name string, src io.Reader, opts ImportOptions) (*agd.Manifest, uint64, error) {
	flushers := runtime.NumCPU()
	in := ImportStream(src, ImportOptions{ChunkSize: opts.ChunkSize, RefSeqs: opts.RefSeqs, Pipelining: flushers + 1})
	defer in.Close()
	m, err := agd.WriteGroups(ctx, in, store, name, agd.WriterOptions{ParallelFlush: flushers})
	if err != nil {
		return nil, 0, err
	}
	return m, m.NumRecords(), nil
}

// ImportStream parses a FASTQ stream into a pipeline group stream — the
// source form of Import used by composed pipelines: the parsed chunks feed
// the next stage in memory, and nothing is written to a store unless the
// pipeline ends in a dataset sink. Each group holds ChunkSize reads in the
// three standard read columns. With opts.Pipelining ≤ 1 groups build into
// reused builders (valid until the next group); with Pipelining > 1 builders
// come from a bounded pool so queued groups stay valid until Release.
// Scanner errors surface from Next.
func ImportStream(src io.Reader, opts ImportOptions) *agd.GroupStream {
	chunkSize := opts.ChunkSize
	if chunkSize <= 0 {
		chunkSize = agd.DefaultChunkSize
	}
	specs := agd.StandardReadColumns()
	var pool *agd.BuilderPool
	var fixed *agd.BuilderSet
	if opts.Pipelining > 1 {
		pool = agd.NewBuilderPool(opts.Pipelining, specs)
	} else {
		fixed = &agd.BuilderSet{Builders: make([]*agd.ChunkBuilder, len(specs))}
		for i, spec := range specs {
			fixed.Builders[i] = agd.NewChunkBuilder(spec.Type, 0)
		}
	}
	sc := NewScanner(src)
	var (
		ordinal uint64
		idx     int
		done    bool
	)
	meta := agd.StreamMeta{
		Columns:   []string{agd.ColBases, agd.ColQual, agd.ColMetadata},
		RefSeqs:   opts.RefSeqs,
		ChunkSize: chunkSize,
	}
	next := func(ctx context.Context) (*agd.RowGroup, error) {
		if done {
			return nil, io.EOF
		}
		set := fixed
		if pool != nil {
			var err error
			if set, err = pool.Get(ctx, ordinal); err != nil {
				return nil, err
			}
		}
		builders := set.Builders
		for i, spec := range specs {
			builders[i].Reset(spec.Type, ordinal)
		}
		rows := 0
		for rows < chunkSize && sc.Scan() {
			m, bases, quals := sc.View()
			builders[0].AppendBases(bases)
			builders[1].Append(quals)
			builders[2].Append(m)
			rows++
		}
		fin := func(err error) (*agd.RowGroup, error) {
			done = true
			if pool != nil {
				pool.Put(set)
			}
			return nil, err
		}
		if err := sc.Err(); err != nil {
			return fin(err)
		}
		if rows == 0 {
			return fin(io.EOF)
		}
		ordinal += uint64(rows)
		shard := 0
		if opts.Shards > 1 {
			shard = idx % opts.Shards
		}
		var release func()
		if pool != nil {
			put := set
			release = func() { pool.Put(put) }
		}
		g := agd.NewRowGroup(idx, shard, set.Chunks(), release)
		idx++
		return g, nil
	}
	gs := agd.NewGroupStream(meta, next, nil)
	gs.Owned = pool != nil
	return gs
}

// Export converts an AGD dataset back to FASTQ. Chunks arrive through a
// prefetching ChunkStream and records are written straight from the column
// bytes (bases expand into a reused scratch), so the export performs no
// per-read allocation. Cancellation and deadline of ctx are checked per
// chunk.
func Export(ctx context.Context, ds *agd.Dataset, dst io.Writer) (uint64, error) {
	chunkPool := agd.NewShardedChunkPool(1, 3*(agd.DefaultPrefetch+1))
	in, err := ds.Groups(agd.StreamOptions{
		Columns:     []string{agd.ColBases, agd.ColQual, agd.ColMetadata},
		ShardedPool: chunkPool,
	})
	if err != nil {
		return 0, err
	}
	defer in.Close()
	return ExportStream(ctx, in, dst)
}

// ExportStream renders a pipeline stream's reads as FASTQ — the stream-in
// sink form of Export.
func ExportStream(ctx context.Context, in *agd.GroupStream, dst io.Writer) (uint64, error) {
	basesCol := in.Meta.Col(agd.ColBases)
	qualCol := in.Meta.Col(agd.ColQual)
	metaCol := in.Meta.Col(agd.ColMetadata)
	if basesCol < 0 || qualCol < 0 || metaCol < 0 {
		return 0, fmt.Errorf("fastq: stream lacks a read column (have %v)", in.Meta.Columns)
	}
	w := NewWriter(dst)
	var n uint64
	var bases []byte
	walk := func(g *agd.RowGroup) error {
		basesChunk, qualChunk, metaChunk := g.Chunks[basesCol], g.Chunks[qualCol], g.Chunks[metaCol]
		if basesChunk.NumRecords() != qualChunk.NumRecords() || basesChunk.NumRecords() != metaChunk.NumRecords() {
			return fmt.Errorf("fastq: group %d columns disagree on record count", g.Index)
		}
		var err error
		for r := 0; r < basesChunk.NumRecords(); r++ {
			bases, err = basesChunk.ExpandBasesRecord(bases[:0], r)
			if err != nil {
				return err
			}
			qual, err := qualChunk.Record(r)
			if err != nil {
				return err
			}
			meta, err := metaChunk.Record(r)
			if err != nil {
				return err
			}
			if err := w.WriteFields(meta, bases, qual); err != nil {
				return err
			}
			n++
		}
		return nil
	}
	for {
		g, err := in.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
		err = walk(g)
		g.Release() // release on the error path too (pooled sources)
		if err != nil {
			return n, err
		}
	}
	return n, w.Flush()
}

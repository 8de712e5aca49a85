package fastq

import (
	"context"
	"fmt"
	"io"

	"persona/internal/agd"
)

// ImportOptions configures ImportStream.
type ImportOptions struct {
	// ChunkSize is records per AGD chunk (default agd.DefaultChunkSize).
	ChunkSize int
	// RefSeqs, if known, travels in the stream metadata.
	RefSeqs []agd.RefSeq
	// Pipelining is how many parsed groups may be in flight at once. ≤ 1
	// keeps the serial pull contract (reused builders, each group valid until
	// the next); > 1 draws builders from a bounded pool of that size so a
	// pumped edge can queue groups.
	Pipelining int
}

// ImportStream parses a FASTQ stream into a pipeline group stream — the
// paper's import utility (§5.7) as a pipeline source: the parsed chunks feed
// the next stage in memory, and nothing is written to a store unless the
// pipeline ends in a dataset sink. Scanned fields flow zero-copy from the
// scanner's reused buffers into the chunk builders, so steady-state parsing
// performs no per-read allocation. Each group holds ChunkSize reads in the
// three standard read columns. With opts.Pipelining ≤ 1 groups build into
// reused builders (valid until the next group); with Pipelining > 1 builders
// come from a bounded pool so queued groups stay valid until Release.
// Scanner errors surface from Next.
func ImportStream(src io.Reader, opts ImportOptions) *agd.GroupStream {
	chunkSize := opts.ChunkSize
	if chunkSize <= 0 {
		chunkSize = agd.DefaultChunkSize
	}
	meta := agd.StreamMeta{
		Columns:   []string{agd.ColBases, agd.ColQual, agd.ColMetadata},
		RefSeqs:   opts.RefSeqs,
		ChunkSize: chunkSize,
	}
	sc := NewScanner(src)
	return agd.FillStream(meta, agd.StandardReadColumns(), opts.Pipelining, func(b []*agd.ChunkBuilder) (int, error) {
		rows := 0
		for rows < chunkSize && sc.Scan() {
			m, bases, quals := sc.View()
			b[0].AppendBases(bases)
			b[1].Append(quals)
			b[2].Append(m)
			rows++
		}
		return rows, sc.Err()
	})
}

// ExportStream renders a pipeline stream's reads as FASTQ. Records are
// written straight from the column bytes (bases expand into a reused
// scratch), so the export performs no per-read allocation.
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

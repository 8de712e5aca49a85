package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"persona"
	"persona/internal/agd"
	"persona/internal/align/snap"
	"persona/internal/core"
	"persona/internal/dataflow"
)

// Ablations quantify the design choices the paper argues for: AGD chunk
// size (§3: "The choice of chunk size is an important factor"), per-column
// block compression and base compaction (§3's two size optimizations), and
// the fine-grain subchunk split that motivates the executor (§4.3/Fig. 4:
// AGD chunks alone are "too coarse for threads and produce work imbalance").

// ChunkSizeRow is one row of the chunk-size ablation.
type ChunkSizeRow struct {
	ChunkSize    int
	Chunks       int
	StoredBytes  int64
	BytesPerRead float64
	ImportSecs   float64
	AlignSecs    float64
}

// RunChunkSizeAblation imports and aligns the same workload at several AGD
// chunk sizes, reporting storage efficiency (large chunks compress better)
// against pipeline latency granularity.
func RunChunkSizeAblation(ctx context.Context, w io.Writer, sc Scale) ([]ChunkSizeRow, error) {
	g, rs, err := sc.simulatedReads()
	if err != nil {
		return nil, err
	}
	idx, err := buildSnapIndex(g)
	if err != nil {
		return nil, err
	}
	fq, err := fastqText(rs)
	if err != nil {
		return nil, err
	}

	section(w, "Ablation: AGD chunk size (§3)")
	fmt.Fprintf(w, "workload: %s\n", sc)
	fmt.Fprintf(w, "%10s %8s %14s %10s %10s %10s\n", "chunk", "chunks", "stored bytes", "B/read", "import(s)", "align(s)")
	var rows []ChunkSizeRow
	for _, chunkSize := range []int{50, 200, 1000, 4000} {
		if chunkSize > sc.NumReads {
			continue
		}
		store := agd.NewMemStore()
		start := time.Now()
		m, _, err := persona.ImportFASTQ(ctx, store, "ds", strings.NewReader(fq), agd.RefSeqsFromGenome(g), chunkSize)
		if err != nil {
			return nil, err
		}
		importSecs := time.Since(start).Seconds()

		var stored int64
		names, err := store.List("ds/")
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			blob, err := store.Get(n)
			if err != nil {
				return nil, err
			}
			stored += int64(len(blob))
		}

		start = time.Now()
		if _, _, err := persona.Align(ctx, store, "ds", idx, persona.AlignOptions{ExecutorThreads: 2}); err != nil {
			return nil, err
		}
		alignSecs := time.Since(start).Seconds()

		row := ChunkSizeRow{
			ChunkSize:    chunkSize,
			Chunks:       len(m.Chunks),
			StoredBytes:  stored,
			BytesPerRead: float64(stored) / float64(sc.NumReads),
			ImportSecs:   importSecs,
			AlignSecs:    alignSecs,
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%10d %8d %14d %10.1f %10.3f %10.3f\n",
			row.ChunkSize, row.Chunks, row.StoredBytes, row.BytesPerRead, row.ImportSecs, row.AlignSecs)
	}
	fmt.Fprintln(w, "expected: larger chunks amortize headers and compress better (fewer bytes/read);")
	fmt.Fprintln(w, "smaller chunks reduce per-chunk latency — the paper's storage-vs-latency tradeoff")
	return rows, nil
}

// CompressionRow is one row of the compression/compaction ablation.
type CompressionRow struct {
	Name       string
	Bytes      int64
	EncodeSecs float64
	DecodeSecs float64
}

// RunCompressionAblation measures the bases column under the four
// combinations of base compaction and gzip — the two size optimizations of
// §3 — over one paper-sized chunk (100k reads).
func RunCompressionAblation(ctx context.Context, w io.Writer, sc Scale) ([]CompressionRow, error) {
	g, rs, err := sc.simulatedReads()
	if err != nil {
		return nil, err
	}
	_ = g

	build := func(compact bool) *agd.Chunk {
		b := agd.NewChunkBuilder(agd.TypeCompactBases, 0)
		if !compact {
			b = agd.NewChunkBuilder(agd.TypeRaw, 0)
		}
		for i := range rs {
			if compact {
				b.AppendBases(rs[i].Bases)
			} else {
				b.Append(rs[i].Bases)
			}
		}
		return b.Chunk()
	}

	section(w, "Ablation: base compaction x block compression (§3)")
	fmt.Fprintf(w, "workload: %s\n", sc)
	fmt.Fprintf(w, "%-24s %12s %12s %12s\n", "bases column encoding", "bytes", "encode(s)", "decode(s)")
	var rows []CompressionRow
	for _, cfg := range []struct {
		name    string
		compact bool
		comp    agd.Compression
	}{
		{"raw", false, agd.CompressNone},
		{"gzip", false, agd.CompressGzip},
		{"compact", true, agd.CompressNone},
		{"compact+gzip", true, agd.CompressGzip},
	} {
		chunk := build(cfg.compact)
		start := time.Now()
		blob, err := agd.EncodeChunk(chunk, cfg.comp)
		if err != nil {
			return nil, err
		}
		encodeSecs := time.Since(start).Seconds()
		start = time.Now()
		if _, err := agd.DecodeChunk(blob); err != nil {
			return nil, err
		}
		decodeSecs := time.Since(start).Seconds()
		row := CompressionRow{Name: cfg.name, Bytes: int64(len(blob)), EncodeSecs: encodeSecs, DecodeSecs: decodeSecs}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-24s %12d %12.4f %12.4f\n", row.Name, row.Bytes, row.EncodeSecs, row.DecodeSecs)
	}
	fmt.Fprintln(w, "expected: compaction alone ≈2.4x smaller than raw; gzip compounds it; the paper's")
	fmt.Fprintln(w, "deployment uses compact+gzip for bases (≈3.5 MB per 100k-read chunk at 101 bp)")
	return rows, nil
}

// SubchunkRow is one row of the subchunk-granularity ablation.
type SubchunkRow struct {
	Subchunks int
	AlignSecs float64
}

// RunSubchunkAblation aligns the same dataset with different fine-grain
// splits, demonstrating why the executor exists: the align engine has one
// chunk in flight, so one task per chunk leaves the second core idle (the
// §4.3 "chunks are too coarse for threads" problem), while subchunking keeps
// both busy within a chunk.
func RunSubchunkAblation(ctx context.Context, w io.Writer, sc Scale) ([]SubchunkRow, error) {
	section(w, "Ablation: fine-grain subchunk split (Fig. 4)")
	fmt.Fprintf(w, "workload: %s\n", sc)
	fmt.Fprintf(w, "%10s %10s\n", "subchunks", "align(s)")
	var rows []SubchunkRow
	for _, sub := range []int{1, 2, 8, 32} {
		store := agd.NewMemStore()
		f, err := sc.fixture(store, "ds", false)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := alignSubchunks(ctx, f.Dataset, f.Index, sub); err != nil {
			return nil, err
		}
		row := SubchunkRow{Subchunks: sub, AlignSecs: time.Since(start).Seconds()}
		rows = append(rows, row)
		fmt.Fprintf(w, "%10d %10.3f\n", row.Subchunks, row.AlignSecs)
	}
	fmt.Fprintln(w, "expected: subchunks>1 engage both executor threads within a chunk; the paper's")
	fmt.Fprintln(w, "fix for AGD chunks being 'too coarse for threads' (§4.3)")
	return rows, nil
}

// alignSubchunks aligns ds in place with each chunk split into sub
// subchunks: the bases stream through the align stage into the results
// column on a 2-worker executor, and the column is registered once stored
// (or deleted again if any of it fails).
// persona.Align fixes the split at the engine default, so the ablation
// assembles the stage itself.
func alignSubchunks(ctx context.Context, ds *agd.Dataset, idx *snap.Index, sub int) error {
	exec := dataflow.NewExecutor(2, 4)
	defer exec.Close()
	codec := agd.Codec{Exec: exec}
	in, err := ds.Groups(agd.StreamOptions{Columns: []string{agd.ColBases}, Codec: codec})
	if err != nil {
		return err
	}
	out, _, err := core.AlignStream(core.AlignConfig{Index: idx, Subchunks: sub}, exec, in)
	if err != nil {
		in.Close()
		return err
	}
	_, err = agd.AddColumn(ds.Store(), ds.Manifest, agd.ColResults, func() error {
		return agd.WriteColumn(ctx, out, ds.Store(), ds.Manifest, agd.ColResults, codec)
	})
	return err
}

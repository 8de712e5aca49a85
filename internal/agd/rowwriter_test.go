package agd

import (
	"context"
	"io"
	"testing"
)

// RowWriter is the row-at-a-time dataset writer the one chunk sink replaced,
// kept as the oracle FuzzWriteGroups and TestWriteGroupsMatchesRowAtATime
// hold WriteGroups to: every row is copied into one builder per column, each
// meta.ChunkSize rows are encoded with the zero Codec (gzip) and stored, and
// Close stores the last partial chunk and the manifest.
type RowWriter struct {
	store    BlobStore
	name     string
	meta     StreamMeta
	cols     []ColumnSpec
	builders []*ChunkBuilder
	ordinal  uint64
	entries  []ChunkEntry
}

// NewRowWriter opens a RowWriter of dataset name over meta's columns.
func NewRowWriter(store BlobStore, name string, meta StreamMeta) *RowWriter {
	w := &RowWriter{store: store, name: name, meta: meta, cols: SpecsForColumns(meta.Columns)}
	for _, c := range w.cols {
		w.builders = append(w.builders, NewChunkBuilder(c.Type, 0))
	}
	return w
}

// Append adds one row, its fields in stored representation.
func (w *RowWriter) Append(fields ...[]byte) error {
	for i, f := range fields {
		w.builders[i].Append(f)
	}
	w.ordinal++
	if w.builders[0].NumRecords() == w.meta.ChunkSize {
		return w.flush()
	}
	return nil
}

func (w *RowWriter) flush() error {
	n := w.builders[0].NumRecords()
	if n == 0 {
		return nil
	}
	entry := ChunkEntry{Path: ChunkEntryPath(w.name, len(w.entries)), First: w.ordinal - uint64(n), Records: uint32(n)}
	w.entries = append(w.entries, entry)
	for i, c := range w.cols {
		comp := CompressGzip
		if c.Type == TypePackedBases {
			comp = CompressNone // packed bases are stored as they are
		}
		blob, err := EncodeChunk(w.builders[i].Chunk(), comp)
		if err != nil {
			return err
		}
		if err := w.store.Put(chunkPath(entry, c.Name), blob); err != nil {
			return err
		}
		w.builders[i].Reset(c.Type, w.ordinal)
	}
	return nil
}

// Close stores the last partial chunk and writes the manifest.
func (w *RowWriter) Close() (*Manifest, error) {
	if err := w.flush(); err != nil {
		return nil, err
	}
	m := newManifest(w.name, w.cols, w.entries, w.meta.RefSeqs, w.meta.SortedBy)
	return m, WriteManifest(w.store, m)
}

// groupsOf streams rows, in stored representation, in groups of the given
// sizes; each group is built fresh, starting at the ordinal its rows have.
func groupsOf(meta StreamMeta, rows [][][]byte, sizes []int) *GroupStream {
	specs := SpecsForColumns(meta.Columns)
	next, index := 0, 0
	return NewGroupStream(meta, func(context.Context) (*RowGroup, error) {
		if index == len(sizes) {
			return nil, io.EOF
		}
		n := sizes[index]
		chunks := make([]*Chunk, len(specs))
		for c, sp := range specs {
			b := NewChunkBuilder(sp.Type, uint64(next))
			for _, row := range rows[next : next+n] {
				b.Append(row[c])
			}
			chunks[c] = b.Chunk()
		}
		g := NewRowGroup(index, 0, chunks, nil)
		next += n
		index++
		return g, nil
	}, nil)
}

// chunkSizes splits n rows into groups of up to per rows.
func chunkSizes(n, per int) []int {
	var sizes []int
	for ; n > 0; n -= per {
		sizes = append(sizes, min(n, per))
	}
	return sizes
}

// writeRows writes rows, in stored representation, as dataset name through
// WriteGroups, in groups of meta.ChunkSize rows.
func writeRows(t testing.TB, store BlobStore, name string, meta StreamMeta, rows [][][]byte) *Manifest {
	t.Helper()
	m, err := WriteGroups(context.Background(), groupsOf(meta, rows, chunkSizes(len(rows), meta.ChunkSize)), store, name, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

package agd

import (
	"context"
	"fmt"

	"persona/internal/dataflow"
)

// ColumnSpec declares one column of a dataset under construction.
type ColumnSpec struct {
	Name string
	Type RecordType
	// Compression for this column's chunks; the zero value selects gzip,
	// matching the paper's deployment. (The per-column choice is the
	// flexibility knob §3 describes.)
	Compression Compression
	compSet     bool
}

// WithCompression returns the spec with an explicit compression choice.
func (c ColumnSpec) WithCompression(comp Compression) ColumnSpec {
	c.Compression = comp
	c.compSet = true
	return c
}

func (c ColumnSpec) compression() Compression {
	if !c.compSet && c.Compression == CompressNone {
		return CompressGzip
	}
	return c.Compression
}

// StandardReadColumns returns the specs of the three sequencer-read columns
// (bases, qual, metadata).
func StandardReadColumns() []ColumnSpec {
	return []ColumnSpec{
		{Name: ColBases, Type: TypeCompactBases},
		{Name: ColQual, Type: TypeRaw},
		{Name: ColMetadata, Type: TypeRaw},
	}
}

// Writer builds an AGD dataset chunk by chunk. Records are appended row-wise
// (one field per column); the writer splits columns into row-grouped chunks
// of ChunkSize records and writes each column chunk as its own blob. A full
// chunk is encoded before the Append that filled it returns, its gzip members
// compressing as tasks on WriterOptions.Codec's executor, and the builders
// are reset in place for the next chunk. The chunk's Puts run as one task on
// that executor while the next chunk fills, one chunk in flight at most; with
// no executor they run before the Append returns.
type Writer struct {
	store     BlobStore
	name      string
	cols      []ColumnSpec
	chunkSize int
	refSeqs   []RefSeq
	sortedBy  string
	codec     Codec
	puts      *puts

	builders []*ChunkBuilder
	fields   [][]byte // one row of an AppendGroup copied row by row
	ordinal  uint64
	entries  []ChunkEntry
	closed   bool
}

// WriterOptions configures a dataset writer.
type WriterOptions struct {
	// ChunkSize is records per chunk; default DefaultChunkSize.
	ChunkSize int
	// RefSeqs is recorded in the manifest (may be nil for unaligned data).
	RefSeqs []RefSeq
	// SortedBy is recorded in the manifest ("", "location", "metadata").
	SortedBy string
	// Codec encodes the chunks; its executor, when set, compresses a large
	// gzip chunk's members and stores each chunk while the next one fills.
	// The zero value encodes and stores on the caller.
	Codec Codec
	// Raw stores every column CompressNone, whatever its spec says: for a
	// dataset read once and then deleted, deflate is work undone by the read.
	Raw bool
}

// NewWriter creates a dataset writer. The dataset's manifest is written on
// Close.
func NewWriter(store BlobStore, name string, cols []ColumnSpec, opts WriterOptions) (*Writer, error) {
	if name == "" {
		return nil, fmt.Errorf("agd: empty dataset name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("agd: no columns")
	}
	seen := make(map[string]bool)
	for _, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("agd: column with empty name")
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("agd: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
	}
	if opts.ChunkSize <= 0 {
		opts.ChunkSize = DefaultChunkSize
	}
	if opts.Raw {
		raw := make([]ColumnSpec, len(cols))
		for i, c := range cols {
			raw[i] = c.WithCompression(CompressNone)
		}
		cols = raw
	}
	w := &Writer{
		store:     store,
		name:      name,
		cols:      cols,
		chunkSize: opts.ChunkSize,
		refSeqs:   opts.RefSeqs,
		sortedBy:  opts.SortedBy,
		codec:     opts.Codec,
		puts:      newPuts(opts.Codec.Exec),
		builders:  make([]*ChunkBuilder, len(cols)),
		fields:    make([][]byte, len(cols)),
	}
	for i, c := range cols {
		w.builders[i] = NewChunkBuilder(c.Type, 0)
	}
	return w, nil
}

// Append adds one record; fields must match the writer's columns in order.
// Bases columns (TypeCompactBases) receive raw base letters and are
// compacted here.
func (w *Writer) Append(fields ...[]byte) error {
	if w.closed {
		return fmt.Errorf("agd: writer for %q is closed", w.name)
	}
	if len(fields) != len(w.cols) {
		return fmt.Errorf("agd: Append got %d fields, want %d", len(fields), len(w.cols))
	}
	for i, f := range fields {
		if w.cols[i].Type == TypeCompactBases {
			w.builders[i].AppendBases(f)
		} else {
			w.builders[i].Append(f)
		}
	}
	w.ordinal++
	if w.builders[0].NumRecords() >= w.chunkSize {
		return w.flushChunk()
	}
	return nil
}

// AppendResult is a convenience for results-only datasets/columns.
func (w *Writer) AppendResult(r *Result) error {
	return w.Append(EncodeResult(nil, r))
}

// AppendStored adds one record whose fields are already in stored
// representation (e.g. bases already compacted) — rows that are only
// reordered or selected are never expanded.
func (w *Writer) AppendStored(fields ...[]byte) error {
	if w.closed {
		return fmt.Errorf("agd: writer for %q is closed", w.name)
	}
	if len(fields) != len(w.cols) {
		return fmt.Errorf("agd: AppendStored got %d fields, want %d", len(fields), len(w.cols))
	}
	for i, f := range fields {
		w.builders[i].Append(f)
	}
	w.ordinal++
	if w.builders[0].NumRecords() >= w.chunkSize {
		return w.flushChunk()
	}
	return nil
}

// AppendGroup adds every row of g, whose chunks hold stored representation,
// and releases g (on failure too). A group that is exactly one output chunk —
// the builders are empty and it holds ChunkSize rows — is encoded and stored
// as it stands, under the ordinal the writer assigns rather than the chunks'
// own (a filtered group still carries its input's). Any other group is copied
// row by row through AppendStored. Both routes write the same blobs.
func (w *Writer) AppendGroup(g *RowGroup) error {
	defer g.Release()
	chunks := g.Chunks
	n := g.NumRecords()
	if err := w.checkGroup(g, n); err != nil {
		return err
	}
	if n == w.chunkSize && w.builders[0].NumRecords() == 0 {
		entry := w.addEntry(w.ordinal, n)
		w.ordinal += uint64(n)
		whole := make([]*Chunk, len(w.cols))
		for i, c := range w.cols {
			whole[i] = &Chunk{Type: c.Type, FirstOrdinal: entry.First, lengths: chunks[i].lengths, Data: chunks[i].Data}
		}
		return w.storeChunk(entry, whole)
	}
	for i, c := range chunks {
		w.builders[i].Grow(n, len(c.Data))
	}
	for r := 0; r < n; r++ {
		for i, c := range chunks {
			f, err := c.Record(r)
			if err != nil {
				return err
			}
			w.fields[i] = f
		}
		if err := w.AppendStored(w.fields...); err != nil {
			return err
		}
	}
	return nil
}

// checkGroup rejects a group the writer cannot take: the wrong number of
// columns, or columns that disagree on the row count n.
func (w *Writer) checkGroup(g *RowGroup, n int) error {
	if w.closed {
		return fmt.Errorf("agd: writer for %q is closed", w.name)
	}
	if len(g.Chunks) != len(w.cols) {
		return fmt.Errorf("agd: group %d has %d columns, dataset %q has %d", g.Index, len(g.Chunks), w.name, len(w.cols))
	}
	for i, c := range g.Chunks {
		if c.NumRecords() != n {
			return fmt.Errorf("%w: group %d column %q has %d records, column %q has %d",
				ErrRowGroup, g.Index, w.cols[i].Name, c.NumRecords(), w.cols[0].Name, n)
		}
	}
	return nil
}

// addEntry records the next output chunk: n rows from dataset ordinal first.
func (w *Writer) addEntry(first uint64, n int) ChunkEntry {
	entry := ChunkEntry{
		Path:    ChunkEntryPath(w.name, len(w.entries)),
		First:   first,
		Records: uint32(n),
	}
	w.entries = append(w.entries, entry)
	return entry
}

// flushChunk stores the rows accumulated in the builders as the next chunk
// and resets the builders for the one after it.
func (w *Writer) flushChunk() error {
	n := w.builders[0].NumRecords()
	if n == 0 {
		return nil
	}
	entry := w.addEntry(w.ordinal-uint64(n), n)
	chunks := make([]*Chunk, len(w.cols))
	for i := range w.cols {
		// The entry, not the builder, says where the chunk starts: whole
		// groups advance the ordinal past builders that stay empty.
		chunks[i] = w.builders[i].Chunk()
		chunks[i].FirstOrdinal = entry.First
	}
	err := w.storeChunk(entry, chunks)
	for i, c := range w.cols {
		w.builders[i].Reset(c.Type, w.ordinal)
	}
	return err
}

// storeChunk encodes one output row group's column chunks and hands their
// blobs to the store (see puts). The blobs own their bytes, so the chunks may
// be reused as soon as it returns.
func (w *Writer) storeChunk(entry ChunkEntry, chunks []*Chunk) error {
	blobs := make([][]byte, len(w.cols))
	for i, c := range w.cols {
		blob, err := w.codec.Encode(chunks[i], c.compression())
		if err != nil {
			return err
		}
		blobs[i] = blob
	}
	return w.puts.run(func() error {
		for i, c := range w.cols {
			if err := w.store.Put(chunkPath(entry, c.Name), blobs[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// puts runs each chunk's stores as one task on an executor, so the caller
// encodes the next chunk while this one's Puts wait on storage — a durable
// Put is mostly an fsync. At most one chunk is in flight: run, like wait,
// first waits for the one before it to land. With no executor the stores run
// on the caller.
type puts struct {
	exec    *dataflow.Executor
	pending bool
	done    chan error // the in-flight chunk's outcome
}

func newPuts(exec *dataflow.Executor) *puts {
	return &puts{exec: exec, done: make(chan error, 1)}
}

// run stores one chunk, after the chunk before it has landed; that chunk's
// failure is returned instead.
func (p *puts) run(store func() error) error {
	if err := p.wait(); err != nil {
		return err
	}
	if p.exec == nil {
		return store()
	}
	if err := p.exec.Submit(context.Background(), func() { p.done <- store() }); err != nil {
		return err
	}
	p.pending = true
	return nil
}

// wait blocks until the chunk in flight, if any, has landed and returns its
// failure.
func (p *puts) wait() error {
	if !p.pending {
		return nil
	}
	p.pending = false
	return <-p.done
}

// NumRecords returns how many records have been appended so far.
func (w *Writer) NumRecords() uint64 { return w.ordinal }

// finish flushes the final partial chunk, waits for the last chunk's blobs to
// land and returns the chunks written, in row order.
func (w *Writer) finish() ([]ChunkEntry, error) {
	if w.closed {
		return nil, fmt.Errorf("agd: writer for %q already closed", w.name)
	}
	w.closed = true
	err := w.flushChunk()
	if werr := w.puts.wait(); err == nil {
		err = werr
	}
	if err != nil {
		return nil, err
	}
	return w.entries, nil
}

// Close flushes the final partial chunk and writes the manifest. It returns
// the completed manifest.
func (w *Writer) Close() (*Manifest, error) {
	entries, err := w.finish()
	if err != nil {
		return nil, err
	}
	m := newManifest(w.name, w.cols, entries, w.refSeqs, w.sortedBy)
	if len(m.Chunks) == 0 {
		return nil, fmt.Errorf("agd: dataset %q has no records", w.name)
	}
	if err := WriteManifest(w.store, m); err != nil {
		return nil, err
	}
	return m, nil
}

// halt ends a failed write: it closes the writer and waits for the chunk in
// flight, leaving the blobs that landed.
func (w *Writer) halt() {
	w.closed = true
	_ = w.puts.wait() // the caller is already reporting a failure
}

// Abort abandons a dataset that will get no manifest — after a failed append
// or Close: halt, then delete the column blobs of every chunk the writer
// began.
func (w *Writer) Abort() {
	w.halt()
	for _, entry := range w.entries {
		for _, c := range w.cols {
			// Best effort: the caller is already reporting the failure that
			// led here, and a blob that never landed is not there to delete.
			_ = w.store.Delete(chunkPath(entry, c.Name))
		}
	}
}

// AppendColumn adds a new column to an existing dataset, row-grouped with
// the existing chunks: records must be supplied per chunk, matching each
// chunk's record count. This is how Persona appends alignment results to a
// dataset (§3: "a new record field ... can be easily added by writing the
// column chunk files and adding appropriate entries to the metadata file").
// It is the record-at-a-time form, for callers that hold the whole column in
// memory (fixtures, and the reference the align identity tests compare
// against); stages stream a column in through WriteColumn instead.
func AppendColumn(store BlobStore, m *Manifest, spec ColumnSpec, chunkRecords func(chunkIdx int) ([][]byte, error)) (*Manifest, error) {
	if m.HasColumn(spec.Name) {
		return nil, fmt.Errorf("agd: dataset %q already has column %q", m.Name, spec.Name)
	}
	for i, entry := range m.Chunks {
		records, err := chunkRecords(i)
		if err != nil {
			return nil, err
		}
		if len(records) != int(entry.Records) {
			return nil, fmt.Errorf("%w: chunk %d has %d records, column supplies %d",
				ErrRowGroup, i, entry.Records, len(records))
		}
		b := NewChunkBuilder(spec.Type, entry.First)
		for _, rec := range records {
			if spec.Type == TypeCompactBases {
				b.AppendBases(rec)
			} else {
				b.Append(rec)
			}
		}
		blob, err := EncodeChunk(b.Chunk(), spec.compression())
		if err != nil {
			return nil, err
		}
		if err := store.Put(chunkPath(entry, spec.Name), blob); err != nil {
			return nil, err
		}
	}
	updated := *m
	updated.Columns = append(append([]string{}, m.Columns...), spec.Name)
	if err := WriteManifest(store, &updated); err != nil {
		return nil, err
	}
	return &updated, nil
}

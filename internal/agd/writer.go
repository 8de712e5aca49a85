package agd

import (
	"fmt"
	"sync"
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
// of ChunkSize records and writes each column chunk as its own blob.
// With ParallelFlush > 1, chunk encoding and compression run on background
// workers so ingest keeps all cores busy — how the paper's importer reaches
// 360 MB/s (§5.7).
type Writer struct {
	store     BlobStore
	name      string
	cols      []ColumnSpec
	chunkSize int
	refSeqs   []RefSeq
	sortedBy  string

	builders []*ChunkBuilder
	fields   [][]byte // one row of an AppendGroup copied row by row
	ordinal  uint64
	entries  []ChunkEntry
	closed   bool

	// bpool recycles builder sets flush→startChunk so steady-state chunk
	// rollover reuses the previous chunks' backing arrays instead of
	// allocating a fresh builder per column per chunk.
	bpool chan []*ChunkBuilder

	flushers  chan struct{} // semaphore; nil means synchronous
	flushWG   sync.WaitGroup
	flushErrs chan error
}

// WriterOptions configures a dataset writer.
type WriterOptions struct {
	// ChunkSize is records per chunk; default DefaultChunkSize.
	ChunkSize int
	// RefSeqs is recorded in the manifest (may be nil for unaligned data).
	RefSeqs []RefSeq
	// SortedBy is recorded in the manifest ("", "location", "metadata").
	SortedBy string
	// ParallelFlush > 1 compresses and stores completed chunks on that many
	// background workers.
	ParallelFlush int
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
	w := &Writer{
		store:     store,
		name:      name,
		cols:      cols,
		chunkSize: opts.ChunkSize,
		refSeqs:   opts.RefSeqs,
		sortedBy:  opts.SortedBy,
		fields:    make([][]byte, len(cols)),
	}
	if opts.ParallelFlush > 1 {
		w.flushers = make(chan struct{}, opts.ParallelFlush)
		w.flushErrs = make(chan error, opts.ParallelFlush)
		w.bpool = make(chan []*ChunkBuilder, opts.ParallelFlush+1)
	} else {
		w.bpool = make(chan []*ChunkBuilder, 2)
	}
	w.startChunk()
	return w, nil
}

func (w *Writer) startChunk() {
	select {
	case bs := <-w.bpool:
		for i, c := range w.cols {
			bs[i].Reset(c.Type, w.ordinal)
		}
		w.builders = bs
		return
	default:
	}
	w.builders = make([]*ChunkBuilder, len(w.cols))
	for i, c := range w.cols {
		w.builders[i] = NewChunkBuilder(c.Type, w.ordinal)
	}
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
// own (a filtered group still carries its input's). When owned says g stays
// valid until Release, that store runs on the ParallelFlush workers and g is
// released once its blobs have landed; otherwise it runs before AppendGroup
// returns. Any other group is copied row by row through AppendStored. Both
// routes write the same blobs.
func (w *Writer) AppendGroup(g *RowGroup, owned bool) error {
	chunks := g.Chunks
	n := g.NumRecords()
	err := w.flushErr()
	if err == nil {
		err = w.checkGroup(g, n)
	}
	if err != nil {
		g.Release()
		return err
	}
	if n == w.chunkSize && w.builders[0].NumRecords() == 0 {
		entry := w.addEntry(w.ordinal, n)
		w.ordinal += uint64(n)
		store := func() error {
			defer g.Release()
			for i, c := range w.cols {
				whole := &Chunk{Type: c.Type, FirstOrdinal: entry.First, lengths: chunks[i].lengths, Data: chunks[i].Data}
				if err := w.storeColumn(entry, c, whole); err != nil {
					return err
				}
			}
			return nil
		}
		if owned {
			return w.flush(store)
		}
		return store()
	}
	defer g.Release()
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
// and starts a fresh builder set.
func (w *Writer) flushChunk() error {
	n := w.builders[0].NumRecords()
	if n == 0 {
		return nil
	}
	if err := w.flushErr(); err != nil {
		return err
	}
	entry := w.addEntry(w.ordinal-uint64(n), n)
	builders := w.builders
	w.startChunk()
	return w.flush(func() error {
		for i, c := range w.cols {
			// The entry, not the builder, says where the chunk starts: whole
			// groups advance the ordinal past builders that stay empty.
			chunk := builders[i].Chunk()
			chunk.FirstOrdinal = entry.First
			if err := w.storeColumn(entry, c, chunk); err != nil {
				return err
			}
		}
		// Recycle the builder set for a future startChunk.
		select {
		case w.bpool <- builders:
		default:
		}
		return nil
	})
}

// flush runs one chunk's store: inline on a synchronous writer, else on a
// background worker once one is free, its error surfacing from flushErr.
func (w *Writer) flush(store func() error) error {
	if w.flushers == nil {
		return store()
	}
	w.flushers <- struct{}{}
	w.flushWG.Add(1)
	go func() {
		defer w.flushWG.Done()
		defer func() { <-w.flushers }()
		if err := store(); err != nil {
			select {
			case w.flushErrs <- err:
			default:
			}
		}
	}()
	return nil
}

// flushErr reports a background store's failure (once), so it surfaces at
// the next chunk instead of at Close.
func (w *Writer) flushErr() error {
	select {
	case err := <-w.flushErrs:
		return err
	default:
		return nil
	}
}

// storeColumn compresses and stores one column chunk of an output row group.
func (w *Writer) storeColumn(entry ChunkEntry, col ColumnSpec, c *Chunk) error {
	blob, err := EncodeChunk(c, col.compression())
	if err != nil {
		return err
	}
	return w.store.Put(chunkPath(entry, col.Name), blob)
}

// NumRecords returns how many records have been appended so far.
func (w *Writer) NumRecords() uint64 { return w.ordinal }

// finish flushes the final partial chunk, waits for every chunk's blobs to
// land and returns the chunks written, in row order.
func (w *Writer) finish() ([]ChunkEntry, error) {
	if w.closed {
		return nil, fmt.Errorf("agd: writer for %q already closed", w.name)
	}
	w.closed = true
	if err := w.flushChunk(); err != nil {
		return nil, err
	}
	w.flushWG.Wait()
	return w.entries, w.flushErr()
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

// halt ends a failed write: it waits for the background workers, which
// release the groups they hold, and leaves the blobs they stored.
func (w *Writer) halt() {
	w.closed = true
	w.flushWG.Wait()
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

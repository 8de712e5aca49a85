package agd

import (
	"context"
	"errors"
	"fmt"
	"io"

	"persona/internal/dataflow"
)

// This file is the write side of a dataset: one chunk sink behind three
// endings. WriteGroups stores a stream as a new dataset, WriteChunks as the
// chunks of one partition of a dataset stitched later, and WriteColumn as one
// column of an existing dataset — the paper's §3 "writing the column chunk
// files and adding appropriate entries to the metadata file", whose second
// half is AddColumn.

// ColumnSpec declares one column of a dataset under construction.
type ColumnSpec struct {
	Name string
	Type RecordType
}

// StandardReadColumns returns the specs of the three sequencer-read columns
// (bases, qual, metadata).
func StandardReadColumns() []ColumnSpec {
	return []ColumnSpec{
		{Name: ColBases, Type: TypePackedBases},
		{Name: ColQual, Type: TypeRaw},
		{Name: ColMetadata, Type: TypeRaw},
	}
}

// WriterOptions configures the dataset sinks. The stream's metadata gives
// the rest: the records per chunk, the reference sequences and the sort
// order.
type WriterOptions struct {
	// Codec encodes the chunks; its executor, when set, compresses a large
	// gzip chunk's members and stores each chunk while the next one fills.
	// The zero value encodes and stores on the caller.
	Codec Codec
	// Raw stores every column CompressNone instead of gzip: for a dataset
	// read once and then deleted, deflate is work undone by the read.
	Raw bool
}

// WriteGroups drains a stream into a new dataset and writes its manifest. The
// rows are re-chunked to the stream's chunk size (Meta.ChunkSize; when 0, the
// first group's size), so chunking survives a fused pipeline; a group that
// already is one output chunk is stored as it stands, without a copy. Every
// chunk is encoded on the calling goroutine (its members on opts.Codec's
// executor) and its blobs stored, one Put at a time, while the next group is
// pulled — as a task on that executor, or before the pull with none. It
// returns once every blob has landed. On any failure the column blobs already
// written are deleted. It is the pipeline's dataset sink; the caller closes
// the stream.
func WriteGroups(ctx context.Context, in *GroupStream, store BlobStore, name string, opts WriterOptions) (*Manifest, error) {
	s, err := newSink(in, store, name, opts)
	if err != nil {
		return nil, err
	}
	err = s.drain(ctx, in)
	if err == nil && len(s.entries) == 0 {
		err = fmt.Errorf("agd: dataset %q has %w", name, ErrNoRecords)
	}
	var m *Manifest
	if err == nil {
		m = newManifest(name, s.cols, s.entries, in.Meta.RefSeqs, in.Meta.SortedBy)
		err = WriteManifest(store, m)
	}
	if err != nil {
		for _, entry := range s.entries {
			for _, c := range s.cols {
				// Best effort: the failure that led here is the one
				// reported, and a blob that never landed is not there.
				_ = store.Delete(chunkPath(entry, c.Name))
			}
		}
		return nil, err
	}
	return m, nil
}

// WriteChunks is WriteGroups stopping short of the manifest: it returns the
// entries of the chunks it stored, in row order — none, and no blob, for a
// stream without records. A cluster reduce writes its partition of an output
// dataset this way; the coordinator stitches the entries into one manifest.
//
// Unlike WriteGroups it deletes nothing on failure: it leaves the blobs that
// landed. A partition's chunk names are deterministic and shared by every
// attempt at its task, so a failed attempt must not take away what a
// concurrent or earlier one stored; the retry overwrites them with the same
// bytes, and without a manifest nothing reads them.
func WriteChunks(ctx context.Context, in *GroupStream, store BlobStore, name string, opts WriterOptions) ([]ChunkEntry, error) {
	s, err := newSink(in, store, name, opts)
	if err != nil {
		return nil, err
	}
	if err := s.drain(ctx, in); err != nil {
		return nil, err
	}
	return s.entries, nil
}

// WriteColumn drains a stream into one column of the existing dataset m:
// group i's chunk of column col is encoded (gzip) on codec and stored under
// chunk i's blob path of m, replacing any blob already there. It is how a
// stage's output lands next to the columns it was computed from — alignment
// appending results (§3), duplicate marking rewriting them. It leaves the
// manifest alone: a new column is registered by the AddColumn it runs in.
//
// Each group is encoded on the calling goroutine and released before the next
// is pulled; its blob is stored meanwhile, one Put at a time — as a task on
// codec's executor, or on the caller with none. The stream is closed on
// return, after the last blob has landed; the first failure, the stream's or
// a store's, is the one returned, and cancelling ctx returns a context error
// with every group released.
func WriteColumn(ctx context.Context, in *GroupStream, store BlobStore, m *Manifest, col string, codec Codec) error {
	defer in.Close()
	ci := in.Meta.Col(col)
	if ci < 0 {
		return fmt.Errorf("agd: stream has no %q column to write to dataset %q", col, m.Name)
	}
	s := &sink{
		store: store,
		name:  m.Name,
		cols:  SpecsForColumns(in.Meta.Columns),
		codec: codec,
		comp:  CompressGzip,
		puts:  newPuts(codec.Exec),
		into:  m,
		col:   ci,
	}
	return s.drain(ctx, in)
}

// AddColumn runs write, which stores column col's chunk blobs for every chunk
// of m (WriteColumn, or the map tasks of a distributed align), and returns
// the manifest that lists the column. A column new to m is registered once
// write returns (RegisterColumn); if write or the registration fails, every
// blob of the column is deleted again, so a failed align leaves the dataset
// as it found it. A column m already lists is being rewritten — its old blobs
// are gone as the new ones land — so m is returned as it is and nothing is
// deleted.
func AddColumn(store BlobStore, m *Manifest, col string, write func() error) (*Manifest, error) {
	added := !m.HasColumn(col)
	err := write()
	updated := m
	if err == nil && added {
		updated, err = RegisterColumn(store, m, col)
	}
	if err != nil {
		if added {
			for i := range m.Chunks {
				_ = store.Delete(m.ChunkBlobPath(i, col)) // best effort, as in WriteGroups
			}
		}
		return nil, err
	}
	return updated, nil
}

// sink is the one drain loop behind WriteGroups, WriteChunks and WriteColumn.
// It pulls a stream's groups, checks each (checkGroup) and places its rows in
// chunks: with into set, group i is chunk i of that manifest and only stream
// column col is stored; otherwise the rows are re-chunked to chunkSize as the
// next chunks of dataset name, each chunk in every column. Each chunk is
// encoded on codec and its blobs stored through puts, one Put at a time.
type sink struct {
	store BlobStore
	name  string
	cols  []ColumnSpec // the stream's columns
	codec Codec
	comp  Compression
	puts  *puts
	// blobs holds two chunks' encoded blobs, used in turn: when a chunk is
	// encoded, the one before it may still be storing, but the one before
	// that has landed (puts.run waited for it).
	blobs  [2][][]byte
	stored int // chunks handed to puts

	into *Manifest
	col  int

	chunkSize int
	builders  []*ChunkBuilder // the rows of the chunk being filled
	ordinal   uint64          // rows placed in the chunks begun
	entries   []ChunkEntry    // the chunks begun, in row order
}

// newSink opens a dataset sink (no into) over in's columns.
func newSink(in *GroupStream, store BlobStore, name string, opts WriterOptions) (*sink, error) {
	if name == "" {
		return nil, fmt.Errorf("agd: empty dataset name")
	}
	cols := SpecsForColumns(in.Meta.Columns)
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
	comp := CompressGzip
	if opts.Raw {
		comp = CompressNone
	}
	return &sink{
		store:     store,
		name:      name,
		cols:      cols,
		codec:     opts.Codec,
		comp:      comp,
		puts:      newPuts(opts.Codec.Exec),
		chunkSize: in.Meta.ChunkSize,
	}, nil
}

// drain stores every group of in and returns once the last blob has landed
// (or failed to), with every group it pulled released.
func (s *sink) drain(ctx context.Context, in *GroupStream) error {
	err := s.pull(ctx, in)
	if werr := s.puts.wait(); err == nil {
		err = werr
	}
	return err
}

func (s *sink) pull(ctx context.Context, in *GroupStream) error {
	for {
		g, err := in.Next(ctx)
		if err == io.EOF {
			return s.flush()
		}
		if errors.Is(err, dataflow.ErrStopped) && ctx.Err() != nil {
			// A pool or executor wait the dead context abandoned.
			return ctx.Err()
		}
		if err != nil {
			return err
		}
		err = s.put(g)
		g.Release()
		if err != nil {
			return err
		}
	}
}

// put places one checked group.
func (s *sink) put(g *RowGroup) error {
	n := g.NumRecords()
	if err := s.checkGroup(g, n); err != nil {
		return err
	}
	if s.into != nil {
		if g.Index < 0 || g.Index >= len(s.into.Chunks) {
			return fmt.Errorf("%w: group %d of dataset %q (%d chunks)", ErrNoChunk, g.Index, s.name, len(s.into.Chunks))
		}
		entry := s.into.Chunks[g.Index]
		if n != int(entry.Records) {
			return fmt.Errorf("%w: chunk %d has %d records, column %q supplies %d",
				ErrRowGroup, g.Index, entry.Records, s.cols[s.col].Name, n)
		}
		return s.storeChunk(entry, s.cols[s.col:s.col+1], g.Chunks[s.col:s.col+1])
	}
	if s.builders == nil {
		if s.chunkSize <= 0 {
			s.chunkSize = n
		}
		if s.chunkSize <= 0 {
			s.chunkSize = DefaultChunkSize
		}
		s.builders = make([]*ChunkBuilder, len(s.cols))
		for i, c := range s.cols {
			s.builders[i] = NewChunkBuilder(c.Type, 0)
		}
	}
	if n == s.chunkSize && s.builders[0].NumRecords() == 0 {
		// A whole chunk: stored as it stands, under the ordinal the sink
		// assigns rather than the chunks' own (a filtered group still
		// carries its input's).
		entry := s.addEntry(n)
		whole := make([]*Chunk, len(s.cols))
		for i, c := range s.cols {
			whole[i] = &Chunk{Type: c.Type, FirstOrdinal: entry.First, lengths: g.Chunks[i].lengths, Data: g.Chunks[i].Data}
		}
		return s.storeChunk(entry, s.cols, whole)
	}
	for i, c := range g.Chunks {
		s.builders[i].Grow(n, len(c.Data))
	}
	for r := 0; r < n; r++ {
		for i, c := range g.Chunks {
			f, err := c.Record(r)
			if err != nil {
				return err
			}
			s.builders[i].Append(f)
		}
		if s.builders[0].NumRecords() == s.chunkSize {
			if err := s.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkGroup rejects a group the sink cannot take: the wrong number of
// columns, columns that disagree on the row count n, or a column whose
// records are not of the type its name takes (SpecTypeFor).
func (s *sink) checkGroup(g *RowGroup, n int) error {
	if len(g.Chunks) != len(s.cols) {
		return fmt.Errorf("agd: group %d has %d columns, dataset %q has %d", g.Index, len(g.Chunks), s.name, len(s.cols))
	}
	for i, c := range g.Chunks {
		if c.NumRecords() != n {
			return fmt.Errorf("%w: group %d column %q has %d records, column %q has %d",
				ErrRowGroup, g.Index, s.cols[i].Name, c.NumRecords(), s.cols[0].Name, n)
		}
		if c.Type != s.cols[i].Type {
			return fmt.Errorf("agd: group %d column %q holds %v records, the column takes %v", g.Index, s.cols[i].Name, c.Type, s.cols[i].Type)
		}
	}
	return nil
}

// addEntry begins the next output chunk, of n rows.
func (s *sink) addEntry(n int) ChunkEntry {
	entry := ChunkEntry{Path: ChunkEntryPath(s.name, len(s.entries)), First: s.ordinal, Records: uint32(n)}
	s.entries = append(s.entries, entry)
	s.ordinal += uint64(n)
	return entry
}

// flush stores the rows gathered in the builders as the next chunk and
// resets the builders for the one after it.
func (s *sink) flush() error {
	if s.builders == nil || s.builders[0].NumRecords() == 0 {
		return nil
	}
	entry := s.addEntry(s.builders[0].NumRecords())
	chunks := make([]*Chunk, len(s.cols))
	for i := range s.cols {
		chunks[i] = s.builders[i].Chunk()
		chunks[i].FirstOrdinal = entry.First
	}
	err := s.storeChunk(entry, s.cols, chunks)
	for i, c := range s.cols {
		s.builders[i].Reset(c.Type, s.ordinal)
	}
	return err
}

// storeChunk encodes one chunk's columns and hands their blobs to the store (see
// puts). The blobs own their bytes, so the chunks may be reused as soon as it
// returns.
func (s *sink) storeChunk(entry ChunkEntry, cols []ColumnSpec, chunks []*Chunk) error {
	blobs := s.blobs[s.stored%2][:0]
	for _, c := range chunks {
		blob, err := s.codec.Encode(c, s.compression(c.Type))
		if err != nil {
			return err
		}
		blobs = append(blobs, blob)
	}
	s.blobs[s.stored%2] = blobs
	s.stored++
	return s.puts.run(func() error {
		for i, c := range cols {
			if err := s.store.Put(chunkPath(entry, c.Name), blobs[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// compression is the sink's one rule for a chunk's block compression: packed
// bases are stored as they are, since deflate would spend more time than it
// saves bytes on them, and every other record type with the sink's
// compression.
func (s *sink) compression(t RecordType) Compression {
	if t == TypePackedBases {
		return CompressNone
	}
	return s.comp
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

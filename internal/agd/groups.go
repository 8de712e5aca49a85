package agd

import (
	"context"
	"io"
	"sync"
	"sync/atomic"

	"persona/internal/dataflow"
)

// This file defines the chunk-granularity dataflow edge between pipeline
// stages: a pull-based stream of decoded row groups plus the dataset-level
// metadata downstream stages need (columns, reference sequences, sort
// order). Stages consume a GroupStream and return a new one, so a composed
// pipeline moves chunks stage-to-stage in memory instead of materializing
// an intermediate dataset in the store between every pair of stages (§4.1's
// graph composition, §4.3's pipelines).

// StreamMeta describes the rows flowing across a pipeline edge.
type StreamMeta struct {
	// Columns names the column of each chunk in a RowGroup, in order.
	Columns []string
	// RefSeqs is the reference the rows were (or will be) aligned against.
	RefSeqs []RefSeq
	// SortedBy is the row order ("", "location" or "metadata").
	SortedBy string
	// NumRecords is the total row count when known up front; 0 when the
	// source is unbounded (e.g. a FASTQ import stream).
	NumRecords uint64
	// ChunkSize is the source's records-per-chunk (0 when unknown). Stages
	// that re-chunk rows (sort's merge, the dataset sink) default to it, so
	// a pipeline whose groups shrink mid-stream — a selective filter —
	// still produces output chunked like its source rather than like the
	// first surviving group.
	ChunkSize int
}

// Col returns the index of the named column, or -1.
func (m StreamMeta) Col(name string) int {
	for i, c := range m.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// HasColumn reports whether the stream carries the named column.
func (m StreamMeta) HasColumn(name string) bool { return m.Col(name) >= 0 }

// WithColumn returns a copy of the metadata with one column appended.
func (m StreamMeta) WithColumn(name string) StreamMeta {
	cols := make([]string, 0, len(m.Columns)+1)
	cols = append(cols, m.Columns...)
	m.Columns = append(cols, name)
	return m
}

// RowGroup is one row group in flight between stages: the decoded chunks of
// every stream column, row-aligned. Groups are delivered in row order.
//
// Ownership: a group's chunks stay valid until its Release, however many
// further groups the consumer pulls first. Every stage builds its output
// groups in sets from a bounded BuilderPool, or passes pooled source chunks
// through, so no byte recycles under a live group; once the producer's whole
// window is held, Next waits for a Release (back-pressure). A serial run's
// window is one set, so its consumers release each group before pulling.
type RowGroup struct {
	// Index is the group's position in the stream (0-based).
	Index int
	// Chunks holds one decoded chunk per StreamMeta.Columns entry.
	Chunks []*Chunk
	// release returns pooled resources; nil when nothing is pooled.
	release func()
}

// NewRowGroup assembles a group for delivery, with an optional release hook
// (run once, on Release) returning pooled resources — for a derived group,
// typically the upstream group's Release. The second argument is ignored: it
// stays only because bench/ compiles against this signature.
func NewRowGroup(index, _ int, chunks []*Chunk, release func()) *RowGroup {
	return &RowGroup{Index: index, Chunks: chunks, release: release}
}

// NumRecords returns the group's row count.
func (g *RowGroup) NumRecords() int {
	if len(g.Chunks) == 0 {
		return 0
	}
	return g.Chunks[0].NumRecords()
}

// Col returns the chunk of the named column per meta, or nil.
func (g *RowGroup) Col(meta StreamMeta, name string) *Chunk {
	if i := meta.Col(name); i >= 0 && i < len(g.Chunks) {
		return g.Chunks[i]
	}
	return nil
}

// Release returns the group's pooled resources to their owners. The caller
// must not reference the chunks (or slices of their data) afterwards.
// Releasing twice is a no-op.
func (g *RowGroup) Release() {
	if g.release != nil {
		r := g.release
		g.release = nil
		g.Chunks = nil
		r()
	}
}

// GroupStream is the pull-based edge between pipeline stages. Next returns
// groups in row order and io.EOF when the stream is exhausted; Close stops
// the stream early and releases stage resources (pooled builders,
// upstream streams). Next also checks the context before delivering, so a
// cancelled pipeline stops within one chunk at every stage.
//
// Next must be called from one goroutine at a time (stage state is not
// shareable), but Close may race a concurrent Next: a pumped pipeline's
// teardown closes streams while their pumps are mid-pull. After Close, the
// in-flight Next finishes (or fails) and every later Next returns io.EOF.
type GroupStream struct {
	// Meta describes the rows this edge carries.
	Meta StreamMeta
	// Owned is read by nothing: every stream's groups stay valid until
	// Release (see RowGroup). It stays only because bench/ assigns it.
	Owned bool

	next     func(ctx context.Context) (*RowGroup, error)
	stop     func()
	closed   atomic.Bool
	stopOnce sync.Once
}

// NewGroupStream assembles a stream from a delivery function and an optional
// stop hook (run once, on the first Close).
func NewGroupStream(meta StreamMeta, next func(ctx context.Context) (*RowGroup, error), stop func()) *GroupStream {
	return &GroupStream{Meta: meta, next: next, stop: stop}
}

// Next delivers the next row group, or io.EOF at the end of the stream. The
// context's cancellation and deadline are checked per group.
func (s *GroupStream) Next(ctx context.Context) (*RowGroup, error) {
	if s.closed.Load() {
		return nil, io.EOF
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g, err := s.next(ctx)
	if err == io.EOF {
		s.closed.Store(true) // a stage that ended may have recycled its builders
	}
	if err == nil && s.closed.Load() {
		// Raced a Close: the stop hook may already be tearing down the
		// resources backing this group, so don't hand it out.
		g.Release()
		return nil, io.EOF
	}
	return g, err
}

// Close stops the stream. Groups already delivered stay valid until
// released; subsequent Next calls return io.EOF. Close is idempotent and
// safe to call concurrently with Next.
func (s *GroupStream) Close() {
	s.closed.Store(true)
	s.stopOnce.Do(func() {
		if s.stop != nil {
			s.stop()
		}
	})
}

// BuilderSet is one checked-out set of per-column chunk builders from a
// BuilderPool: the backing buffers of one in-flight output group.
type BuilderSet struct {
	// Builders holds one builder per pool column, in spec order.
	Builders []*ChunkBuilder
	// Release returns the set to its pool, then releases the group Hold gave
	// it: the release hook of the group built from the set. The pool binds it
	// once, when it makes the set, so a group costs no closure.
	Release func()
	held    *RowGroup
}

// Chunks returns every builder's accumulated chunk, in column order. The
// chunks share the builders' backing arrays, so they are valid until the
// set's Release.
func (s *BuilderSet) Chunks() []*Chunk {
	chunks := make([]*Chunk, len(s.Builders))
	for i, b := range s.Builders {
		chunks[i] = b.Chunk()
	}
	return chunks
}

// Hold keeps g alive until the set's Release: a stage whose output group
// passes g's chunks through holds g in the set it builds its own column in.
func (s *BuilderSet) Hold(g *RowGroup) { s.held = g }

// BuilderPool is a bounded pool of per-column builder sets, the one place a
// stage builds its output groups: a group's chunks live in its set until
// Release, so a pumped edge can queue several of a stage's groups with no
// recycling under a live reader. Exhaustion blocks in Get — the same
// back-pressure contract as a bounded edge — so an undersized window
// degrades to waiting, never to corruption. Once the stage has seen its
// upstream's io.EOF (Drop, on the stage's goroutine, where no fill runs),
// every set's builders go back to NewChunkBuilder's pool as the set comes
// free; a stream stopped early (an error, a Close) gives none back.
type BuilderPool struct {
	pool  *dataflow.ItemPool[*BuilderSet]
	mu    sync.Mutex
	ended bool // Drop saw io.EOF: sets recycle as they come free
}

// NewBuilderPool creates a pool of window builder sets, one builder per
// spec. The minimum is 1: a serial run's one set, which its consumer
// releases before it pulls again.
func NewBuilderPool(window int, specs []ColumnSpec) *BuilderPool {
	bp := &BuilderPool{}
	bp.pool = dataflow.NewItemPool(window, func() *BuilderSet {
		set := &BuilderSet{Builders: make([]*ChunkBuilder, len(specs))}
		for i, sp := range specs {
			set.Builders[i] = NewChunkBuilder(sp.Type, 0)
		}
		set.Release = func() {
			held := set.held
			set.held = nil
			bp.mu.Lock()
			bp.pool.Put(set)
			for bp.ended {
				free, ok := bp.pool.TryGet()
				if !ok {
					break
				}
				for _, b := range free.Builders {
					b.Recycle()
				}
			}
			bp.mu.Unlock()
			if held != nil {
				held.Release()
			}
		}
		return set
	}, nil)
	return bp
}

// Get checks out a builder set, blocking while every set is held by an
// in-flight group (ErrStopped on ctx cancellation). Its builders still hold
// the set's last group: the caller resets each before appending.
func (bp *BuilderPool) Get(ctx context.Context) (*BuilderSet, error) { return bp.pool.Get(ctx) }

// Drop releases set, taken for a group that pulling upstream failed to
// deliver with err, and returns err. At io.EOF the stage's stream has ended,
// so the builders of every set go back to the process-wide pool.
func (bp *BuilderPool) Drop(set *BuilderSet, err error) error {
	bp.mu.Lock()
	bp.ended = err == io.EOF
	bp.mu.Unlock()
	set.Release()
	return err
}

// Size returns the pool's bound; Free the sets currently available. Equal
// when no group is in flight and the stream has not ended — the leak check
// for pumped-stage tests.
func (bp *BuilderPool) Size() int { return bp.pool.Size() }

// Free returns the number of sets currently available.
func (bp *BuilderPool) Free() int { return bp.pool.Free() }

// FillStream is a pipeline source over a parser — the scaffold the file
// importers and the sort's merge share. Each Next takes a set of chunk
// builders, one per spec, from a BuilderPool of window sets, resets them to
// the group's first record ordinal and hands them to fill, which appends up
// to a chunk of rows and returns how many it appended; those rows are the
// group, valid until its Release. A fill that appends no rows ends the
// stream, and one that fails ends it with its error, dropping the rows it
// appended.
func FillStream(meta StreamMeta, specs []ColumnSpec, window int, fill func(builders []*ChunkBuilder) (int, error)) *GroupStream {
	pool := NewBuilderPool(window, specs)
	var (
		ordinal uint64
		index   int
		done    bool
	)
	next := func(ctx context.Context) (*RowGroup, error) {
		if done {
			return nil, io.EOF
		}
		set, err := pool.Get(ctx)
		if err != nil {
			return nil, err
		}
		for i, spec := range specs {
			set.Builders[i].Reset(spec.Type, ordinal)
		}
		rows, err := fill(set.Builders)
		if err == nil && rows == 0 {
			err = io.EOF
		}
		if err != nil {
			done = true
			return nil, pool.Drop(set, err)
		}
		g := &RowGroup{Index: index, Chunks: set.Chunks(), release: set.Release}
		ordinal += uint64(rows)
		index++
		return g, nil
	}
	return NewGroupStream(meta, next, nil)
}

// Groups opens a GroupStream over the dataset's chunks, read ahead of the
// consumer through a self-sizing fetch window — the one reader of a
// dataset's chunks, and the pipeline's dataset source. Column order follows
// opts.Columns (every manifest column when empty), and the group metadata
// carries the manifest's reference sequences and sort order.
func (d *Dataset) Groups(opts StreamOptions) (*GroupStream, error) {
	cs, err := newChunkStream(d, opts)
	if err != nil {
		return nil, err
	}
	meta := StreamMeta{
		Columns:    cs.cols,
		RefSeqs:    d.Manifest.RefSeqs,
		SortedBy:   d.Manifest.SortedBy,
		NumRecords: d.Manifest.NumRecords(),
	}
	if len(d.Manifest.Chunks) > 0 {
		meta.ChunkSize = int(d.Manifest.Chunks[0].Records)
	}
	// Source chunks are valid until Release: the recycler takes back only
	// released chunks, the cache only unpinned ones.
	return NewGroupStream(meta, cs.next, cs.close), nil
}

// SpecsForColumns maps standard column names to their column specs (the
// record-type convention shared by sort, filter and the pipeline writer).
func SpecsForColumns(columns []string) []ColumnSpec {
	cols := make([]ColumnSpec, len(columns))
	for i, name := range columns {
		cols[i] = ColumnSpec{Name: name, Type: SpecTypeFor(name)}
	}
	return cols
}

// SpecTypeFor returns the record-type convention for a standard column name.
func SpecTypeFor(name string) RecordType {
	switch name {
	case ColBases:
		return TypePackedBases
	case ColResults:
		return TypeResults
	}
	return TypeRaw
}

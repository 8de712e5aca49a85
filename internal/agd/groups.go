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
// Ownership: the consumer must finish with a group — and Release it — before
// asking the stream for the next one. Stages that reuse builders or pooled
// buffers recycle them on the next Next call, so a group's chunks are valid
// only until Release or the following Next, whichever comes first.
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

// Detach returns a group whose chunks are independently owned copies, valid
// until the garbage collector — however many later groups the producing
// stream delivers. The original group is released. Pumped edges detach
// groups from streams that do not declare Owned delivery, so a stage's
// reused builders can never recycle under a queued group.
func (g *RowGroup) Detach() *RowGroup {
	chunks := make([]*Chunk, len(g.Chunks))
	for i, c := range g.Chunks {
		chunks[i] = c.Clone()
	}
	out := NewRowGroup(g.Index, 0, chunks, nil)
	g.Release()
	return out
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
	// Owned declares the delivery contract: when true, every delivered
	// group's chunks stay valid until the group is Released, no matter how
	// many further groups are requested first (pool- or copy-backed
	// stages). When false — the strict pull contract — a group's chunks
	// may recycle on the following Next call, so a pumped edge must Detach
	// the group before queueing it.
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
}

// Chunks returns every builder's accumulated chunk, in column order. The
// chunks share the builders' backing arrays, so they are valid until the set
// is Put back.
func (s *BuilderSet) Chunks() []*Chunk {
	chunks := make([]*Chunk, len(s.Builders))
	for i, b := range s.Builders {
		chunks[i] = b.Chunk()
	}
	return chunks
}

// BuilderPool is a bounded pool of per-column builder sets. Stages that used
// to recycle one builder set per pull draw from a pool instead, which turns
// their output groups release-owned (valid until Release, not until the next
// Next): a pumped edge can then queue several of a stage's groups without
// any recycling under a live reader. Exhaustion blocks in Get — the same
// back-pressure contract as the chunk pools — so an undersized window
// degrades to waiting, never to corruption.
type BuilderPool struct {
	specs []ColumnSpec
	pool  *dataflow.ItemPool[*BuilderSet]
}

// NewBuilderPool creates a pool of window builder sets (minimum 2: one being
// filled, one in flight), one builder per spec.
func NewBuilderPool(window int, specs []ColumnSpec) *BuilderPool {
	if window < 2 {
		window = 2
	}
	bp := &BuilderPool{specs: specs}
	bp.pool = dataflow.NewItemPool(window, func() *BuilderSet {
		set := &BuilderSet{Builders: make([]*ChunkBuilder, len(specs))}
		for i, sp := range specs {
			set.Builders[i] = NewChunkBuilder(sp.Type, 0)
		}
		return set
	}, nil)
	return bp
}

// Get checks out a builder set, blocking while every set is held by an
// in-flight group (ErrStopped on ctx cancellation). Each builder is reset to
// its column's record type with the given first-record ordinal.
func (bp *BuilderPool) Get(ctx context.Context, firstOrdinal uint64) (*BuilderSet, error) {
	set, err := bp.pool.Get(ctx)
	if err != nil {
		return nil, err
	}
	for i, sp := range bp.specs {
		set.Builders[i].Reset(sp.Type, firstOrdinal)
	}
	return set, nil
}

// Put returns a set to the pool. The group built from it must be dead: its
// chunks alias the builders' arrays, which the next Get recycles.
func (bp *BuilderPool) Put(set *BuilderSet) {
	if set != nil {
		bp.pool.Put(set)
	}
}

// Size returns the pool's bound; Free the sets currently available. Equal
// when no group is in flight — the leak check for pumped-stage tests.
func (bp *BuilderPool) Size() int { return bp.pool.Size() }

// Free returns the number of sets currently available.
func (bp *BuilderPool) Free() int { return bp.pool.Free() }

// FillStream is a pipeline source over a parser — the scaffold the file
// importers and the sort's merge share. Each Next resets a set of chunk builders, one per spec, to
// the group's first record ordinal and hands them to fill, which appends up
// to a chunk of rows and returns how many it appended; those rows are the
// group. A fill that appends no rows ends the stream, and one that fails ends
// it with its error, dropping the rows it appended. With window ≤ 1 every
// group builds into one reused builder set, valid until the next Next; with
// window > 1 the sets come from a BuilderPool of that size, so groups stay
// valid until Release (Owned) and a pumped edge can queue them.
func FillStream(meta StreamMeta, specs []ColumnSpec, window int, fill func(builders []*ChunkBuilder) (int, error)) *GroupStream {
	var pool *BuilderPool
	fixed := &BuilderSet{}
	if window > 1 {
		pool = NewBuilderPool(window, specs)
	} else {
		for _, spec := range specs {
			fixed.Builders = append(fixed.Builders, NewChunkBuilder(spec.Type, 0))
		}
	}
	var (
		ordinal uint64
		index   int
		done    bool
	)
	next := func(ctx context.Context) (*RowGroup, error) {
		if done {
			return nil, io.EOF
		}
		set := fixed
		if pool != nil {
			var err error
			if set, err = pool.Get(ctx, ordinal); err != nil {
				return nil, err
			}
		} else {
			for i, spec := range specs {
				set.Builders[i].Reset(spec.Type, ordinal)
			}
		}
		rows, err := fill(set.Builders)
		if err == nil && rows == 0 {
			err = io.EOF
		}
		if err != nil {
			done = true
			if pool != nil {
				pool.Put(set)
			}
			return nil, err
		}
		g := &RowGroup{Index: index, Chunks: set.Chunks()}
		if pool != nil {
			g.release = func() { pool.Put(set) }
		}
		ordinal += uint64(rows)
		index++
		return g, nil
	}
	gs := NewGroupStream(meta, next, nil)
	gs.Owned = pool != nil
	return gs
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
	gs := NewGroupStream(meta, cs.next, cs.close)
	// Pooled source chunks are valid until Release (the pool recycles only
	// released chunks), so dataset groups satisfy the Owned contract.
	gs.Owned = true
	return gs, nil
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

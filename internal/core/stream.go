package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"persona/internal/agd"
	"persona/internal/align/snap"
	"persona/internal/dataflow"
)

// alignStage is the per-stream state of a streaming alignment: pooled
// aligner values, reusable result arenas and the pool of results builders.
type alignStage struct {
	exec      *dataflow.Executor
	aligners  chan *snap.Aligner
	arenas    []*agd.RecordArena
	ranges    []alignedRange // one per subchunk, like arenas
	pool      *agd.BuilderPool
	paired    bool
	subchunks int
	report    *AlignReport
	started   time.Time
	basesCol  int
}

// alignedRange is what alignRange returned for one subchunk: the bases it
// aligned, or the record that does not decode.
type alignedRange struct {
	bases int64
	err   error
}

// errNoIndex rejects an alignment configured without a reference index.
var errNoIndex = errors.New("core: alignment needs an Index")

// AlignStream is the alignment stage, stream in and stream out: it appends
// a results column to every group of in, aligning records in fine-grain
// subchunks on the shared executor (Fig. 4), and the encoded results travel
// with the group in memory — no store round trip. The executor is owned by
// the caller (a Session, a cluster worker) and is never closed here.
// The returned report's counters update as groups flow; Elapsed and Stats
// are finalized when the stream delivers io.EOF or is closed.
func AlignStream(cfg AlignConfig, exec *dataflow.Executor, in *agd.GroupStream) (*agd.GroupStream, *AlignReport, error) {
	if exec == nil {
		return nil, nil, fmt.Errorf("core: AlignStream needs an executor")
	}
	if cfg.Index == nil {
		return nil, nil, errNoIndex
	}
	cfg.applyDefaults()
	basesCol := in.Meta.Col(agd.ColBases)
	if basesCol < 0 {
		return nil, nil, fmt.Errorf("core: stream has no %q column", agd.ColBases)
	}
	if in.Meta.HasColumn(agd.ColResults) {
		return nil, nil, fmt.Errorf("core: stream already carries a results column")
	}
	if cfg.Paired && in.Meta.NumRecords%2 != 0 {
		return nil, nil, fmt.Errorf("core: paired alignment needs an even record count, stream has %d", in.Meta.NumRecords)
	}
	st := &alignStage{
		exec:      exec,
		aligners:  make(chan *snap.Aligner, exec.Workers()),
		arenas:    make([]*agd.RecordArena, cfg.Subchunks),
		ranges:    make([]alignedRange, cfg.Subchunks),
		paired:    cfg.Paired,
		subchunks: cfg.Subchunks,
		pool:      agd.NewBuilderPool(cfg.Pipelining, []agd.ColumnSpec{{Name: agd.ColResults, Type: agd.TypeResults}}),
		report:    &AlignReport{},
		started:   time.Now(),
		basesCol:  basesCol,
	}
	for i := 0; i < exec.Workers(); i++ {
		st.aligners <- snap.NewAligner(cfg.Index, cfg.Aligner)
	}
	for i := range st.arenas {
		st.arenas[i] = agd.NewRecordArena(4096, 64)
	}

	meta := in.Meta.WithColumn(agd.ColResults)
	// finish runs from the EOF path or a concurrent teardown Close — once,
	// whichever comes first (pumped pipelines can race the two).
	var finishOnce sync.Once
	finish := func() {
		finishOnce.Do(func() {
			st.report.Elapsed = time.Since(st.started)
			if st.report.Elapsed > 0 {
				st.report.BasesPerSec = float64(st.report.Bases) / st.report.Elapsed.Seconds()
			}
			st.collectStats()
		})
	}
	next := func(ctx context.Context) (*agd.RowGroup, error) {
		// The set comes first: a consumer holding every set's group waits
		// here, before anything is pulled from upstream.
		set, err := st.pool.Get(ctx)
		if err != nil {
			return nil, err
		}
		g, err := in.Next(ctx)
		if err == io.EOF {
			finish()
		}
		if err != nil {
			return nil, st.pool.Drop(set, err)
		}
		set.Hold(g)
		return st.alignGroup(ctx, g, set)
	}
	return agd.NewGroupStream(meta, next, func() { finish(); in.Close() }), st.report, nil
}

// alignGroup aligns one row group into set, which holds g, returning the
// group with a results chunk appended; its Release is the set's.
func (st *alignStage) alignGroup(ctx context.Context, g *agd.RowGroup, set *agd.BuilderSet) (*agd.RowGroup, error) {
	bases := g.Chunks[st.basesCol]
	n := bases.NumRecords()
	if st.paired && n%2 != 0 {
		// A pair split across two groups can never be aligned as a pair.
		set.Release()
		return nil, fmt.Errorf("core: paired alignment needs whole pairs in every group, group %d has %d records", g.Index, n)
	}
	sub := st.subchunks
	if sub > n {
		sub = n
	}
	if sub == 0 {
		sub = 1
	}
	// SubmitWait returns only after every task it submitted has returned,
	// even when the context dies mid-group: the tasks hold references to the
	// group's chunks, which may recycle through a shared pool on release, so
	// returning before they finish would hand live buffers to another decode.
	err := st.exec.SubmitWait(ctx, sub, func(s int) dataflow.Task {
		lo, hi := s*n/sub, (s+1)*n/sub
		if st.paired {
			// Subchunk boundaries must not split pairs.
			lo, hi = lo&^1, hi&^1
		}
		ra, out := st.arenas[s], &st.ranges[s]
		ra.Reset()
		*out = alignedRange{}
		return func() {
			if ctx.Err() != nil {
				return // cancelled: drain without aligning
			}
			a := <-st.aligners
			defer func() { st.aligners <- a }()
			out.bases, out.err = alignRange(a, bases, ra, lo, hi, st.paired)
		}
	})
	if err == nil {
		err = ctx.Err()
	}
	var chunkBases int64
	for _, r := range st.ranges[:sub] {
		if err == nil && r.err != nil {
			err = fmt.Errorf("core: group %d: %w", g.Index, r.err)
		}
		chunkBases += r.bases
	}
	if err != nil {
		set.Release()
		return nil, err
	}

	builder := set.Builders[0]
	builder.Reset(agd.TypeResults, bases.FirstOrdinal)
	for s := 0; s < sub; s++ {
		ra := st.arenas[s]
		for i := 0; i < ra.Len(); i++ {
			builder.Append(ra.Record(i))
		}
	}
	if builder.NumRecords() != n {
		set.Release()
		return nil, fmt.Errorf("core: group %d aligned %d of %d records", g.Index, builder.NumRecords(), n)
	}

	st.report.Chunks++
	st.report.Reads += int64(n)
	st.report.Bases += chunkBases

	chunks := make([]*agd.Chunk, 0, len(g.Chunks)+1)
	chunks = append(chunks, g.Chunks...)
	chunks = append(chunks, builder.Chunk())
	return agd.NewRowGroup(g.Index, 0, chunks, set.Release), nil
}

// collectStats drains the aligner pool and aggregates SNAP work counters
// (called once, after the last group).
func (st *alignStage) collectStats() {
	if st.aligners == nil {
		return
	}
	close(st.aligners)
	for a := range st.aligners {
		s := a.Stats()
		st.report.Stats.Reads += s.Reads
		st.report.Stats.SeedLookups += s.SeedLookups
		st.report.Stats.CandidatesxLV += s.CandidatesxLV
		st.report.Stats.LVCells += s.LVCells
		st.report.Stats.BytesCompared += s.BytesCompared
		st.report.Stats.Aligned += s.Aligned
	}
	st.aligners = nil
}

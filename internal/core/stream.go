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
// aligner values, reusable result arenas and the output chunk builders
// (one reused builder on the serial pull path, a bounded pool when the
// stage is pumped).
type alignStage struct {
	exec      *dataflow.Executor
	aligners  chan *snap.Aligner
	arenas    []*agd.RecordArena
	builder   *agd.ChunkBuilder
	pool      *agd.BuilderPool
	paired    bool
	subchunks int
	report    *AlignReport
	started   time.Time
	basesCol  int
}

// errNoIndex rejects an alignment configured without a reference index.
var errNoIndex = errors.New("core: alignment needs an Index")

// AlignStream is the stream-in/stream-out form of Align, used by composed
// pipelines: it appends a results column to every group of in, aligning
// records in fine-grain subchunks on the shared executor (Fig. 4), and the
// encoded results travel with the group in memory — no store round trip.
// The executor is owned by the caller (a Session) and is never closed here.
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
		paired:    cfg.Paired,
		subchunks: cfg.Subchunks,
		report:    &AlignReport{},
		started:   time.Now(),
		basesCol:  basesCol,
	}
	if cfg.Pipelining > 1 {
		st.pool = agd.NewBuilderPool(cfg.Pipelining, []agd.ColumnSpec{{Name: agd.ColResults, Type: agd.TypeResults}})
	} else {
		st.builder = agd.NewChunkBuilder(agd.TypeResults, 0)
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
		g, err := in.Next(ctx)
		if err == io.EOF {
			finish()
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		return st.alignGroup(ctx, g)
	}
	out := agd.NewGroupStream(meta, next, func() { finish(); in.Close() })
	out.Owned = st.pool != nil && in.Owned
	return out, st.report, nil
}

// alignGroup aligns one row group, returning the group with a results chunk
// appended. The results chunk aliases the stage's reused builder, valid
// until the next group is requested.
func (st *alignStage) alignGroup(ctx context.Context, g *agd.RowGroup) (*agd.RowGroup, error) {
	bases := g.Chunks[st.basesCol]
	n := bases.NumRecords()
	if st.paired && n%2 != 0 {
		// A pair split across two groups can never be aligned as a pair.
		g.Release()
		return nil, fmt.Errorf("core: paired alignment needs whole pairs in every group, group %d has %d records", g.Index, n)
	}
	sub := st.subchunks
	if sub > n {
		sub = n
	}
	if sub == 0 {
		sub = 1
	}
	// The subchunk batch is pinned to the group's shard, with idle shards
	// stealing the tail. Submission and completion are tracked by a private
	// latch: if the context dies mid-group the stage still waits for the
	// tasks it managed to submit — they hold references to the group's
	// chunks, which may recycle through a shared pool on release, so
	// returning before they finish would hand live buffers to another
	// decode.
	comp := dataflow.NewCompletion(sub)
	submitted := 0
	var submitErr error
	for s := 0; s < sub; s++ {
		lo, hi := s*n/sub, (s+1)*n/sub
		if st.paired {
			// Subchunk boundaries must not split pairs.
			lo, hi = lo&^1, hi&^1
		}
		ra := st.arenas[s]
		ra.Reset()
		task := func(lo, hi int, ra *agd.RecordArena) dataflow.ShardTask {
			return func(int) {
				defer comp.Done()
				if ctx.Err() != nil {
					return // cancelled: drain without aligning
				}
				a := <-st.aligners
				defer func() { st.aligners <- a }()
				alignRange(a, bases, ra, lo, hi, st.paired)
			}
		}(lo, hi, ra)
		if err := st.exec.SubmitSharded(ctx, g.Shard, task); err != nil {
			submitErr = err
			break
		}
		submitted++
	}
	for s := submitted; s < sub; s++ {
		comp.Done()
	}
	// Wait with a background context: the executor outlives the pipeline,
	// so submitted tasks always complete, and waiting keeps the group's
	// chunks alive until no task references them.
	if err := comp.Wait(context.Background()); err != nil {
		g.Release()
		return nil, err
	}
	if submitErr == nil {
		submitErr = ctx.Err()
	}
	if submitErr != nil {
		g.Release()
		return nil, submitErr
	}

	builder := st.builder
	var set *agd.BuilderSet
	if st.pool != nil {
		var err error
		if set, err = st.pool.Get(ctx, bases.FirstOrdinal); err != nil {
			g.Release()
			return nil, err
		}
		builder = set.Builders[0]
	}
	putSet := func() {
		if set != nil {
			st.pool.Put(set)
		}
	}
	builder.Reset(agd.TypeResults, bases.FirstOrdinal)
	for s := 0; s < sub; s++ {
		ra := st.arenas[s]
		for i := 0; i < ra.Len(); i++ {
			builder.Append(ra.Record(i))
		}
	}
	if builder.NumRecords() != n {
		putSet()
		g.Release()
		return nil, fmt.Errorf("core: group %d aligned %d of %d records", g.Index, builder.NumRecords(), n)
	}

	var chunkBases int64
	for r := 0; r < n; r++ {
		rec, err := bases.Record(r)
		if err != nil {
			putSet()
			g.Release()
			return nil, err
		}
		count, l := uvarint(rec)
		if l <= 0 {
			putSet()
			g.Release()
			return nil, fmt.Errorf("core: corrupt bases record in group %d", g.Index)
		}
		chunkBases += int64(count)
	}
	st.report.Chunks++
	st.report.Reads += int64(n)
	st.report.Bases += chunkBases

	chunks := make([]*agd.Chunk, 0, len(g.Chunks)+1)
	chunks = append(chunks, g.Chunks...)
	chunks = append(chunks, builder.Chunk())
	release := g.Release
	if set != nil {
		release = func() {
			st.pool.Put(set)
			g.Release()
		}
	}
	return agd.NewRowGroup(g.Index, g.Shard, chunks, release), nil
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

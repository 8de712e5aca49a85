// Package filter implements dataset filtering, one of the pipeline stages
// the paper names in its goal list (§1: "including (but not limited to)
// read alignment, sorting, duplicate marking, filtering, and variant
// calling"). A filter pass streams row groups (RunStream), keeping the rows
// matching a predicate over their alignment results; Run is the one-stage
// pipeline dataset → RunStream → dataset. Predicates see zero-copy result
// views, so a pass performs no per-record allocation.
package filter

import (
	"context"
	"fmt"
	"runtime"

	"persona/internal/agd"
)

// Predicate decides whether a record stays, given a borrowed view of its
// alignment result (valid only for the duration of the call).
type Predicate func(res *agd.ResultView) bool

// MinMapQ keeps reads with mapping quality of at least q.
func MinMapQ(q uint8) Predicate {
	return func(res *agd.ResultView) bool { return !res.IsUnmapped() && res.MapQ >= q }
}

// MappedOnly keeps aligned reads.
func MappedOnly() Predicate {
	return func(res *agd.ResultView) bool { return !res.IsUnmapped() }
}

// DropDuplicates keeps reads not flagged as PCR duplicates (run markdup
// first).
func DropDuplicates() Predicate {
	return func(res *agd.ResultView) bool { return !res.IsDuplicate() }
}

// Region keeps reads whose leftmost base falls in [start, end) of the
// global coordinate space.
func Region(start, end int64) Predicate {
	return func(res *agd.ResultView) bool {
		return !res.IsUnmapped() && res.Location >= start && res.Location < end
	}
}

// And combines predicates conjunctively.
func And(ps ...Predicate) Predicate {
	return func(res *agd.ResultView) bool {
		for _, p := range ps {
			if !p(res) {
				return false
			}
		}
		return true
	}
}

// Stats reports a filter pass.
type Stats struct {
	In, Kept uint64
}

// Options configures a filter pass.
type Options struct {
	// OutputName names the filtered dataset; default "<name>.filtered".
	// Output chunks hold as many records as the input's.
	OutputName string
}

// Run filters a dataset into a new dataset, preserving all columns.
// Cancellation and deadline of ctx are checked per chunk.
func Run(ctx context.Context, store agd.BlobStore, name string, pred Predicate, opts Options) (*agd.Manifest, Stats, error) {
	ds, err := agd.Open(store, name)
	if err != nil {
		return nil, Stats{}, err
	}
	return RunDataset(ctx, ds, pred, opts)
}

// RunDataset is Run over an open dataset: its chunks stream through
// RunStream into the dataset sink. Output groups come from one more builder
// set than the sink has store workers, so a group the predicate kept whole is
// stored in the background while the next is filtered.
func RunDataset(ctx context.Context, ds *agd.Dataset, pred Predicate, opts Options) (*agd.Manifest, Stats, error) {
	m := ds.Manifest
	if !m.HasColumn(agd.ColResults) {
		return nil, Stats{}, fmt.Errorf("filter: dataset %q has no results column", m.Name)
	}
	if opts.OutputName == "" {
		opts.OutputName = m.Name + ".filtered"
	}
	in, err := ds.Groups(agd.StreamOptions{
		ShardedPool: agd.NewShardedChunkPool(1, len(m.Columns)*(agd.DefaultPrefetch+1)),
	})
	if err != nil {
		return nil, Stats{}, err
	}
	flushers := runtime.NumCPU()
	out, stats, err := RunStream(in, pred, flushers+1)
	if err != nil {
		in.Close()
		return nil, Stats{}, err
	}
	defer out.Close()
	manifest, err := agd.WriteGroups(ctx, out, ds.Store(), opts.OutputName, agd.WriterOptions{ParallelFlush: flushers})
	if err != nil && stats.Kept == 0 && stats.In == m.NumRecords() {
		// Every record was seen and none kept: the sink's "stream has no
		// records" has a better name here.
		err = fmt.Errorf("filter: no records of %q match", m.Name)
	}
	return manifest, *stats, err
}

// RunStream is the stream-in/stream-out form of Run, used by composed
// pipelines: each group is replaced by a (possibly smaller) group holding
// only the rows matching pred; groups left empty by the predicate are
// dropped. Row order and columns are preserved, so the stream metadata
// passes through unchanged. The returned stats update as groups flow.
//
// pipelining is how many output groups may be in flight at once. With
// pipelining ≤ 1 (the serial pull path) output chunks alias one reused
// builder set, valid until the next group; with pipelining > 1 builders come
// from a bounded pool of that size and each group is valid until its
// Release (the kept rows are copied, so the output owns its bytes outright).
func RunStream(in *agd.GroupStream, pred Predicate, pipelining int) (*agd.GroupStream, *Stats, error) {
	resCol := in.Meta.Col(agd.ColResults)
	if resCol < 0 {
		return nil, nil, fmt.Errorf("filter: stream has no results column")
	}
	specs := agd.SpecsForColumns(in.Meta.Columns)
	var pool *agd.BuilderPool
	var fixed *agd.BuilderSet
	if pipelining > 1 {
		pool = agd.NewBuilderPool(pipelining, specs)
	} else {
		fixed = &agd.BuilderSet{Builders: make([]*agd.ChunkBuilder, len(specs))}
		for i, spec := range specs {
			fixed.Builders[i] = agd.NewChunkBuilder(spec.Type, 0)
		}
	}
	stats := &Stats{}
	outIdx := 0
	meta := in.Meta
	meta.NumRecords = 0 // unknown until the predicate has run
	// One view for the stream: pred is an indirect call, so the view it is
	// handed lives on the heap, and one declared per record would be an
	// allocation per record.
	var res agd.ResultView
	next := func(ctx context.Context) (*agd.RowGroup, error) {
		for {
			g, err := in.Next(ctx)
			if err != nil {
				return nil, err
			}
			first := g.Chunks[0].FirstOrdinal
			set := fixed
			if pool != nil {
				if set, err = pool.Get(ctx, first); err != nil {
					g.Release()
					return nil, err
				}
			}
			builders := set.Builders
			for i, spec := range specs {
				builders[i].Reset(spec.Type, first)
			}
			fail := func(err error) (*agd.RowGroup, error) {
				if pool != nil {
					pool.Put(set)
				}
				g.Release()
				return nil, err
			}
			n := g.NumRecords()
			kept := 0
			for r := 0; r < n; r++ {
				stats.In++
				rec, err := g.Chunks[resCol].Record(r)
				if err != nil {
					return fail(err)
				}
				if res, err = agd.DecodeResultView(rec); err != nil {
					return fail(err)
				}
				if !pred(&res) {
					continue
				}
				for col, c := range g.Chunks {
					f, err := c.Record(r)
					if err != nil {
						return fail(err)
					}
					// Rows stay in stored representation (bases compacted).
					builders[col].Append(f)
				}
				kept++
			}
			stats.Kept += uint64(kept)
			g.Release()
			if kept == 0 {
				if pool != nil {
					pool.Put(set)
				}
				continue // fully filtered group: pull the next one
			}
			var release func()
			if pool != nil {
				put := set
				release = func() { pool.Put(put) }
			}
			out := agd.NewRowGroup(outIdx, g.Shard, set.Chunks(), release)
			outIdx++
			return out, nil
		}
	}
	out := agd.NewGroupStream(meta, next, in.Close)
	out.Owned = pool != nil
	return out, stats, nil
}

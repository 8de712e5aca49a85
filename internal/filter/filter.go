// Package filter implements dataset filtering, one of the pipeline stages
// the paper names in its goal list (§1: "including (but not limited to)
// read alignment, sorting, duplicate marking, filtering, and variant
// calling"). A filter pass streams row groups (RunStream), keeping the rows
// matching a predicate over their alignment results; the one-stage
// persona.Filter puts it between a dataset source and a dataset sink.
// Predicates see zero-copy result views, so a pass performs no per-record
// allocation.
package filter

import (
	"context"
	"fmt"

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

// RunStream is the filter stage, stream in and stream out: each group is
// replaced by a (possibly smaller) group holding only the rows matching
// pred; groups left empty by the predicate are dropped. Row order and
// columns are preserved, so the stream metadata passes through unchanged.
// The returned stats update as groups flow.
//
// pipelining is how many output groups may be in flight at once: the size
// of the builder sets' pool (minimum 1). Each group is valid until its
// Release; the kept rows are copied, so the output owns its bytes outright.
func RunStream(in *agd.GroupStream, pred Predicate, pipelining int) (*agd.GroupStream, *Stats, error) {
	resCol := in.Meta.Col(agd.ColResults)
	if resCol < 0 {
		return nil, nil, fmt.Errorf("filter: stream has no results column")
	}
	specs := agd.SpecsForColumns(in.Meta.Columns)
	pool := agd.NewBuilderPool(pipelining, specs)
	stats := &Stats{}
	outIdx := 0
	meta := in.Meta
	meta.NumRecords = 0 // unknown until the predicate has run
	// One view for the stream: pred is an indirect call, so the view it is
	// handed lives on the heap, and one declared per record would be an
	// allocation per record.
	var res agd.ResultView
	next := func(ctx context.Context) (*agd.RowGroup, error) {
		set, err := pool.Get(ctx)
		if err != nil {
			return nil, err
		}
		builders := set.Builders
		for {
			g, err := in.Next(ctx)
			if err != nil {
				return nil, pool.Drop(set, err)
			}
			first := g.Chunks[0].FirstOrdinal
			for i, spec := range specs {
				builders[i].Reset(spec.Type, first)
			}
			fail := func(err error) (*agd.RowGroup, error) {
				set.Release()
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
					// Rows stay in stored representation (bases packed).
					builders[col].Append(f)
				}
				kept++
			}
			stats.Kept += uint64(kept)
			g.Release()
			if kept == 0 {
				continue // fully filtered group: pull the next one
			}
			out := agd.NewRowGroup(outIdx, 0, set.Chunks(), set.Release)
			outIdx++
			return out, nil
		}
	}
	return agd.NewGroupStream(meta, next, in.Close), stats, nil
}

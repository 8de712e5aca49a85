// Package markdup marks PCR/optical duplicate reads using the signature-
// hashing approach of Samblaster [Faust & Hall 2014], as §4.3 of the paper
// describes. A read's signature is its unclipped 5' reference position plus
// strand (plus the mate's signature for paired reads); every read after the
// first with the same signature is flagged as a duplicate.
//
// Because only alignment positions matter, Persona reads and rewrites just
// the results column — the selective-column-I/O advantage §5.6 measures
// (Samblaster must stream entire SAM rows). The paper's implementation uses
// Google's dense_hash_map; Go's built-in map plays that role here. Chunks
// arrive as an agd.GroupStream and results re-encode straight into pooled
// chunk builders, so the sequential mark pass performs no per-record
// allocation; the one-shot persona.MarkDuplicates is that stage between a
// dataset source reading only results and a sink writing them back.
package markdup

import (
	"context"
	"fmt"

	"persona/internal/agd"
	"persona/internal/align"
)

// Stats reports what a marking pass did.
type Stats struct {
	Reads      uint64
	Duplicates uint64
}

// signature identifies a read's duplication class.
type signature struct {
	pos     int64 // unclipped 5' position
	reverse bool
	matePos int64 // mate's location or -1
}

// markChunk re-encodes one results chunk into builder with the duplicate
// flags mk's pass over its rows sets.
func markChunk(chunk *agd.Chunk, builder *agd.ChunkBuilder, mk *Marker) error {
	builder.Reset(agd.TypeResults, chunk.FirstOrdinal)
	builder.Grow(chunk.NumRecords(), len(chunk.Data))
	for r := 0; r < chunk.NumRecords(); r++ {
		v, err := chunk.DecodeResultViewRecord(r)
		if err != nil {
			return err
		}
		if err := mk.MarkView(&v); err != nil {
			return err
		}
		builder.AppendResultView(&v)
	}
	return nil
}

// MarkStream is the marking stage, stream in and stream out: each group's
// results chunk is replaced with a re-encoded chunk carrying duplicate
// flags; the other columns pass through untouched.
// Marking is order-dependent (the first occurrence survives), so the pass is
// sequential — exactly the order the stream delivers. The returned stats
// update as groups flow and are complete at io.EOF.
//
// pipelining is how many output groups may be in flight at once. With
// pipelining ≤ 1 (the serial pull path) the results chunk aliases one reused
// builder, valid until the next group. With pipelining > 1 results builders
// come from a bounded pool of that size and each group's chunks stay valid
// until its Release (provided the input stream is Owned — the passthrough
// columns alias the upstream group, held alive until the output releases).
func MarkStream(in *agd.GroupStream, pipelining int) (*agd.GroupStream, *Stats, error) {
	return SeededStream(in, nil, pipelining)
}

// SeededStream is MarkStream on a marker first seeded with the signature of
// every results record of halo, without marking or counting them: the rows
// from below a partition's cut that a distributed reduce seeds its marker
// with. Unmapped rows are ignored, as marking ignores them.
func SeededStream(in *agd.GroupStream, halo []*agd.Chunk, pipelining int) (*agd.GroupStream, *Stats, error) {
	mk := NewMarker(int(in.Meta.NumRecords))
	for _, c := range halo {
		for r := 0; r < c.NumRecords(); r++ {
			rec, err := c.Record(r)
			if err != nil {
				return nil, nil, err
			}
			v, err := agd.DecodeResultView(rec)
			if err != nil {
				return nil, nil, err
			}
			if v.IsUnmapped() {
				continue
			}
			var sig signature
			if sig, mk.cigar, err = signatureOf(&v, mk.cigar); err != nil {
				return nil, nil, err
			}
			mk.seen[sig] = struct{}{}
		}
	}
	out, err := mk.stream(in, pipelining)
	return out, &mk.Stats, err
}

// stream is the marking stage run on mk, with the pass's statistics
// accumulating in mk.Stats.
func (mk *Marker) stream(in *agd.GroupStream, pipelining int) (*agd.GroupStream, error) {
	resCol := in.Meta.Col(agd.ColResults)
	if resCol < 0 {
		return nil, fmt.Errorf("markdup: stream has no results column")
	}
	var pool *agd.BuilderPool
	var builder *agd.ChunkBuilder
	if pipelining > 1 {
		pool = agd.NewBuilderPool(pipelining, []agd.ColumnSpec{{Name: agd.ColResults, Type: agd.TypeResults}})
	} else {
		builder = agd.NewChunkBuilder(agd.TypeResults, 0)
	}
	next := func(ctx context.Context) (*agd.RowGroup, error) {
		g, err := in.Next(ctx)
		if err != nil {
			return nil, err
		}
		b := builder
		var set *agd.BuilderSet
		if pool != nil {
			if set, err = pool.Get(ctx, g.Chunks[resCol].FirstOrdinal); err != nil {
				g.Release()
				return nil, err
			}
			b = set.Builders[0]
		}
		if err := markChunk(g.Chunks[resCol], b, mk); err != nil {
			if set != nil {
				pool.Put(set)
			}
			g.Release()
			return nil, err
		}
		chunks := make([]*agd.Chunk, len(g.Chunks))
		copy(chunks, g.Chunks)
		chunks[resCol] = b.Chunk()
		release := g.Release
		if set != nil {
			release = func() {
				pool.Put(set)
				g.Release()
			}
		}
		return agd.NewRowGroup(g.Index, 0, chunks, release), nil
	}
	out := agd.NewGroupStream(in.Meta, next, in.Close)
	out.Owned = pool != nil && in.Owned
	return out, nil
}

// Marker is the state of a marking pass: the signatures seen so far. It is
// seedable, which the distributed pipeline's per-partition reduce uses:
// partitions after the first pre-load the set from a halo of earlier rows,
// then mark their own range in order (SeededStream) — first-wins marking
// means seeding is membership-only, so halo order does not matter. MarkStream
// runs a fresh one over the whole stream. One Marker is single-goroutine
// state.
type Marker struct {
	// Stats accumulates over MarkView calls; seeding does not count.
	Stats Stats

	seen  map[signature]struct{}
	cigar align.Cigar
}

// NewMarker returns an empty marker; capacity hints the expected number of
// distinct signatures.
func NewMarker(capacity int) *Marker {
	return &Marker{seen: make(map[signature]struct{}, capacity)}
}

// MarkView marks one decoded result in place: the first row of each
// signature inserts it, every later one gains FlagDuplicate.
func (mk *Marker) MarkView(v *agd.ResultView) error {
	mk.Stats.Reads++
	if v.IsUnmapped() {
		return nil
	}
	var sig signature
	var err error
	sig, mk.cigar, err = signatureOf(v, mk.cigar)
	if err != nil {
		return err
	}
	if _, dup := mk.seen[sig]; dup {
		v.Flags |= agd.FlagDuplicate
		mk.Stats.Duplicates++
	} else {
		mk.seen[sig] = struct{}{}
	}
	return nil
}

// Span returns the absolute distance between an encoded result record's
// signature position and its aligned location (0 for unmapped rows). The
// maximum span over a location-sorted range bounds how far a signature can
// reach across a partition cut, which sizes the shuffle's halo.
func (mk *Marker) Span(rec []byte) (int64, error) {
	v, err := agd.DecodeResultView(rec)
	if err != nil {
		return 0, err
	}
	if v.IsUnmapped() {
		return 0, nil
	}
	var pos int64
	pos, mk.cigar, err = unclippedPos(&v, mk.cigar)
	if err != nil {
		return 0, err
	}
	d := pos - v.Location
	if d < 0 {
		d = -d
	}
	return d, nil
}

// signatureOf computes a read's duplication signature, parsing its CIGAR
// into scratch (returned for reuse).
func signatureOf(v *agd.ResultView, scratch align.Cigar) (signature, align.Cigar, error) {
	pos, scratch, err := unclippedPos(v, scratch)
	if err != nil {
		return signature{}, scratch, err
	}
	sig := signature{pos: pos, reverse: v.IsReverse(), matePos: agd.UnmappedLocation}
	if v.Flags&agd.FlagPaired != 0 {
		sig.matePos = v.MateLocation
	}
	return sig, scratch, nil
}

// UnclippedPos returns the 5'-end reference position of the read as if no
// bases had been clipped: forward reads project leading clips before the
// start; reverse reads use the unclipped end coordinate. Matching
// Samblaster, this makes duplicates of the same fragment collide even when
// their clipping differs.
func UnclippedPos(res *agd.Result) (int64, error) {
	v := res.View()
	pos, _, err := unclippedPos(&v, nil)
	return pos, err
}

// unclippedPos is UnclippedPos over a borrowed view with a reusable CIGAR
// parse scratch.
func unclippedPos(v *agd.ResultView, scratch align.Cigar) (int64, align.Cigar, error) {
	cigar, err := align.ParseCigarBytes(scratch[:0], v.Cigar)
	if err != nil {
		return 0, scratch, err
	}
	if !v.IsReverse() {
		lead := 0
		if len(cigar) > 0 && (cigar[0].Op == align.CigarSoftClip || cigar[0].Op == align.CigarHardClip) {
			lead = cigar[0].Len
		}
		return v.Location - int64(lead), cigar, nil
	}
	trail := 0
	if n := len(cigar); n > 0 && (cigar[n-1].Op == align.CigarSoftClip || cigar[n-1].Op == align.CigarHardClip) {
		trail = cigar[n-1].Len
	}
	return v.Location + int64(cigar.RefLen()) + int64(trail) - 1, cigar, nil
}

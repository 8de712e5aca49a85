package sam

import (
	"context"
	"fmt"
	"io"

	"persona/internal/agd"
	"persona/internal/genome"
)

// reverseString reverses a byte string (quality reversal for reverse-strand
// records).
func reverseString(s string) string {
	b := []byte(s)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}

// ExportScratch is the reused per-record buffers of a streaming export:
// expanded bases, the reverse-complemented sequence and the reversed
// qualities of reverse-strand reads. The zero value is ready to use; one
// scratch serves any number of exports, one at a time.
type ExportScratch struct {
	bases []byte
	rc    []byte
	qrev  []byte
}

// Orient returns a record's SEQ and QUAL in SAM orientation: reverse-strand
// mapped reads are reverse-complemented / reversed into the scratch (the SAM
// convention; AGD stores reads as sequenced). A read is mapped when neither
// its flag nor its location says otherwise, as on import. The returned
// slices are valid until the next call.
func (s *ExportScratch) Orient(bases, qual []byte, v *agd.ResultView) (seq, q []byte) {
	if !v.IsReverse() || v.IsUnmapped() {
		return bases, qual
	}
	s.rc = genome.ReverseComplementScratch(s.rc, bases)
	s.qrev = genome.ReverseScratch(s.qrev, qual)
	return s.rc, s.qrev
}

// ExportStream renders a pipeline stream (with a results column) as SAM —
// the compatibility output subgraph of §4.4. Each record is rendered from
// the column bytes in place, so the export performs no per-record
// allocation. The header's sort order comes from the stream metadata. It
// returns the number of records written.
func ExportStream(ctx context.Context, in *agd.GroupStream, dst io.Writer) (uint64, error) {
	refmap := NewRefMap(in.Meta.RefSeqs)
	sortOrder := "unsorted"
	if in.Meta.SortedBy == "location" {
		sortOrder = "coordinate"
	}
	w, err := NewWriter(dst, in.Meta.RefSeqs, sortOrder)
	if err != nil {
		return 0, err
	}
	var n uint64
	err = StreamGroups(ctx, in, func(meta, seq, qual []byte, v *agd.ResultView) error {
		n++
		return w.WriteView(meta, seq, qual, v, refmap)
	})
	if err != nil {
		return n, err
	}
	return n, w.Flush()
}

// StreamGroups streams every record of a pipeline stream in SAM orientation
// through fn(meta, seq, qual, result view). The slices alias reused buffers,
// valid only for the duration of the call — the shared zero-allocation walk
// under the SAM and BAM exporters. The stream must carry the bases, qual,
// metadata and results columns.
func StreamGroups(ctx context.Context, in *agd.GroupStream, fn func(meta, seq, qual []byte, v *agd.ResultView) error) error {
	basesCol := in.Meta.Col(agd.ColBases)
	qualCol := in.Meta.Col(agd.ColQual)
	metaCol := in.Meta.Col(agd.ColMetadata)
	resCol := in.Meta.Col(agd.ColResults)
	if basesCol < 0 || qualCol < 0 || metaCol < 0 || resCol < 0 {
		return fmt.Errorf("sam: stream lacks an export column (have %v)", in.Meta.Columns)
	}
	var scratch ExportScratch
	// v is hoisted out of the record loop: its address is passed to fn, so a
	// loop-local view would escape (one heap allocation per record).
	var v agd.ResultView
	walk := func(g *agd.RowGroup) error {
		basesChunk, qualChunk, metaChunk, resChunk := g.Chunks[basesCol], g.Chunks[qualCol], g.Chunks[metaCol], g.Chunks[resCol]
		n := basesChunk.NumRecords()
		if qualChunk.NumRecords() != n || metaChunk.NumRecords() != n || resChunk.NumRecords() != n {
			return fmt.Errorf("sam: group %d columns disagree on record count", g.Index)
		}
		var err error
		for r := 0; r < n; r++ {
			scratch.bases, err = basesChunk.ExpandBasesRecord(scratch.bases[:0], r)
			if err != nil {
				return err
			}
			qual, err := qualChunk.Record(r)
			if err != nil {
				return err
			}
			meta, err := metaChunk.Record(r)
			if err != nil {
				return err
			}
			rec, err := resChunk.Record(r)
			if err != nil {
				return err
			}
			if v, err = agd.DecodeResultView(rec); err != nil {
				return err
			}
			seq, q := scratch.Orient(scratch.bases, qual, &v)
			if err := fn(meta, seq, q, &v); err != nil {
				return err
			}
		}
		return nil
	}
	for {
		g, err := in.Next(ctx)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		err = walk(g)
		// Release on the error path too: pooled chunks must go back even
		// when the walk fails, or a shared session pool slowly drains.
		g.Release()
		if err != nil {
			return err
		}
	}
}

// FromResult converts an AGD result plus read fields (in as-sequenced
// orientation, the AGD convention) to a SAM record. Reverse-strand
// alignments get SEQ reverse-complemented and QUAL reversed, per the SAM
// specification — the stored CIGAR already refers to that orientation.
func FromResult(name, seq, qual string, res *agd.Result, refmap *RefMap) (Record, error) {
	if res.Flags&agd.FlagReverse != 0 && res.Flags&agd.FlagUnmapped == 0 {
		seq = string(genome.ReverseComplement(make([]byte, len(seq)), []byte(seq)))
		qual = reverseString(qual)
	}
	rec := Record{
		Name:  name,
		Flags: res.Flags,
		MapQ:  res.MapQ,
		TLen:  res.TemplateLen,
		Seq:   seq,
		Qual:  qual,
	}
	if res.IsUnmapped() {
		rec.Ref, rec.Pos, rec.Cigar = "*", 0, "*"
	} else {
		ref, pos, err := refmap.Locate(res.Location)
		if err != nil {
			return rec, err
		}
		rec.Ref, rec.Pos, rec.Cigar = ref, pos+1, res.Cigar
	}
	if res.Flags&agd.FlagPaired != 0 && res.MateLocation >= 0 {
		ref, pos, err := refmap.Locate(res.MateLocation)
		if err != nil {
			return rec, err
		}
		if ref == rec.Ref {
			rec.RNext = "="
		} else {
			rec.RNext = ref
		}
		rec.PNext = pos + 1
	}
	return rec, nil
}

// ToResult converts a SAM record back to an AGD result.
func ToResult(rec *Record, refmap *RefMap) (agd.Result, error) {
	res := agd.Result{
		Flags:        rec.Flags,
		MapQ:         rec.MapQ,
		TemplateLen:  rec.TLen,
		Cigar:        rec.Cigar,
		Location:     agd.UnmappedLocation,
		MateLocation: agd.UnmappedLocation,
	}
	if rec.Flags&agd.FlagUnmapped == 0 && rec.Ref != "*" && rec.Pos > 0 {
		g, err := refmap.Global(rec.Ref, rec.Pos-1)
		if err != nil {
			return res, err
		}
		res.Location = g
	} else {
		res.Cigar = ""
	}
	if rec.RNext != "*" && rec.PNext > 0 {
		ref := rec.RNext
		if ref == "=" {
			ref = rec.Ref
		}
		g, err := refmap.Global(ref, rec.PNext-1)
		if err != nil {
			return res, err
		}
		res.MateLocation = g
	}
	return res, nil
}

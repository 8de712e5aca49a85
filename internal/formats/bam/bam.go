// Package bam reads and writes the BAM binary alignment format: a BGZF
// stream carrying a binary header and alignment records. Persona produces
// BAM for compatibility with unported tools (§4.4; export throughput is the
// §5.7 experiment).
package bam

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"persona/internal/agd"
	"persona/internal/align"
	"persona/internal/dataflow"
	"persona/internal/formats/bgzf"
	"persona/internal/formats/sam"
)

var bamMagic = []byte{'B', 'A', 'M', 1}

// seqNibble maps a base letter to BAM's 4-bit code; anything but ACGT in
// either case is N (15).
var seqNibble = func() (t [256]byte) {
	for i := range t {
		t[i] = 15
	}
	for i, b := range []byte("ACGT") {
		t[b], t[b|0x20] = 1<<i, 1<<i
	}
	return t
}()

// nibbleSeq decodes a 4-bit code back to a base letter.
func nibbleSeq(n byte) byte {
	switch n {
	case 1:
		return 'A'
	case 2:
		return 'C'
	case 4:
		return 'G'
	case 8:
		return 'T'
	default:
		return 'N'
	}
}

// Writer emits a BAM file.
type Writer struct {
	z     io.WriteCloser
	refs  map[string]int32
	rec   []byte      // the record being rendered, block_size prefix included
	cigar align.Cigar // reused parse scratch (WriteView)
}

// NewWriter writes the BAM header (text header plus reference dictionary)
// into z and returns a record writer over it. z is the BGZF stream: a
// bgzf.Writer, or the stand-in for another tool's compressor. Close closes
// it.
func NewWriter(z io.WriteCloser, refs []agd.RefSeq, sortOrder string) (*Writer, error) {
	bw := &Writer{z: z, refs: make(map[string]int32, len(refs))}
	if sortOrder == "" {
		sortOrder = "unsorted"
	}
	var text bytes.Buffer
	fmt.Fprintf(&text, "@HD\tVN:1.6\tSO:%s\n", sortOrder)
	for _, r := range refs {
		fmt.Fprintf(&text, "@SQ\tSN:%s\tLN:%d\n", r.Name, r.Length)
	}

	var hdr bytes.Buffer
	hdr.Write(bamMagic)
	le := binary.LittleEndian
	var n4 [4]byte
	le.PutUint32(n4[:], uint32(text.Len()))
	hdr.Write(n4[:])
	hdr.Write(text.Bytes())
	le.PutUint32(n4[:], uint32(len(refs)))
	hdr.Write(n4[:])
	for i, r := range refs {
		le.PutUint32(n4[:], uint32(len(r.Name)+1))
		hdr.Write(n4[:])
		hdr.WriteString(r.Name)
		hdr.WriteByte(0)
		le.PutUint32(n4[:], uint32(r.Length))
		hdr.Write(n4[:])
		bw.refs[r.Name] = int32(i)
	}
	if _, err := bw.z.Write(hdr.Bytes()); err != nil {
		return nil, err
	}
	return bw, nil
}

// refID resolves a reference name to its dictionary index; "*" and "" map
// to -1.
func (w *Writer) refID(name string) (int32, error) {
	if name == "" || name == "*" {
		return -1, nil
	}
	id, ok := w.refs[name]
	if !ok {
		return 0, fmt.Errorf("bam: unknown reference %q", name)
	}
	return id, nil
}

// Write emits one alignment record. A read name over 254 bytes is refused
// with an error, and nothing of the record is written.
func (w *Writer) Write(r *sam.Record) error {
	refID, err := w.refID(r.Ref)
	if err != nil {
		return err
	}
	nextRef := r.RNext
	if nextRef == "=" {
		nextRef = r.Ref
	}
	nextRefID, err := w.refID(nextRef)
	if err != nil {
		return err
	}
	cigar, err := align.ParseCigar(r.Cigar)
	if err != nil {
		return err
	}
	return w.writeRecord(refID, int64(r.Pos-1), nextRefID, int64(r.PNext-1), r.MapQ, r.Flags, r.TLen,
		[]byte(r.Name), cigar, []byte(r.Seq), []byte(r.Qual))
}

// WriteView emits one alignment record assembled from AGD column bytes and
// a decoded result view — the zero-allocation export path. seq and qual
// must already be in SAM orientation. Like Write, it refuses a read name over
// 254 bytes.
func (w *Writer) WriteView(name, seq, qual []byte, v *agd.ResultView, refmap *sam.RefMap) error {
	refID, pos := int32(-1), int64(-1)
	cigar := w.cigar[:0]
	if !v.IsUnmapped() {
		ref, p, err := refmap.Locate(v.Location)
		if err != nil {
			return err
		}
		if refID, err = w.refID(ref); err != nil {
			return err
		}
		pos = p
		if cigar, err = align.ParseCigarBytes(cigar, v.Cigar); err != nil {
			return err
		}
	}
	w.cigar = cigar
	nextRefID, pnext := int32(-1), int64(-1)
	if v.Flags&agd.FlagPaired != 0 && v.MateLocation >= 0 {
		ref, p, err := refmap.Locate(v.MateLocation)
		if err != nil {
			return err
		}
		if nextRefID, err = w.refID(ref); err != nil {
			return err
		}
		pnext = p
	}
	return w.writeRecord(refID, pos, nextRefID, pnext, v.MapQ, v.Flags, v.TemplateLen, name, cigar, seq, qual)
}

// maxReadName is the longest read name a record holds: l_read_name, one
// byte, counts the name and its NUL. It is SAM's limit too.
const maxReadName = 254

// writeRecord renders one record into the reused buffer, its block_size
// prefix included, and emits it. A name too long for l_read_name is refused
// before anything is written.
func (w *Writer) writeRecord(refID int32, pos int64, nextRefID int32, pnext int64, mapq uint8, flags uint16, tlen int32, name []byte, cigar align.Cigar, seq, qual []byte) error {
	if len(name) > maxReadName {
		return fmt.Errorf("bam: read name of %d bytes, over the %d a record holds", len(name), maxReadName)
	}
	le := binary.LittleEndian
	b := le.AppendUint32(w.rec[:0], 0)
	b = le.AppendUint32(b, uint32(refID))
	b = le.AppendUint32(b, uint32(int32(pos)))
	// l_read_name | mapq<<8 | bin<<16 (bin left 0: indexing unused here)
	b = le.AppendUint32(b, uint32(len(name)+1)|uint32(mapq)<<8)
	b = le.AppendUint32(b, uint32(len(cigar))|uint32(flags)<<16)
	b = le.AppendUint32(b, uint32(len(seq)))
	b = le.AppendUint32(b, uint32(nextRefID))
	b = le.AppendUint32(b, uint32(int32(pnext)))
	b = le.AppendUint32(b, uint32(tlen))
	b = append(append(b, name...), 0)
	for _, e := range cigar {
		b = le.AppendUint32(b, uint32(e.Len)<<4|uint32(e.Op.BAMCode()))
	}
	// Two bases per byte, first in the high nibble; an odd last base leaves
	// the low nibble 0.
	for ; len(seq) >= 2; seq = seq[2:] {
		b = append(b, seqNibble[seq[0]]<<4|seqNibble[seq[1]])
	}
	if len(seq) == 1 {
		b = append(b, seqNibble[seq[0]]<<4)
	}
	b = append(b, qual...)
	for i := len(b) - len(qual); i < len(b); i++ {
		b[i] -= '!'
	}
	le.PutUint32(b, uint32(len(b)-4))
	w.rec = b
	_, err := w.z.Write(b)
	return err
}

// Close closes the BGZF stream, which flushes it and writes its EOF marker.
func (w *Writer) Close() error { return w.z.Close() }

// ExportStream renders a pipeline stream (with a results column) as BAM
// (§5.7's export path), compressing on the calling goroutine. Records render
// straight from the streamed column bytes, so the export performs no
// per-record allocation. It returns the number of records written.
func ExportStream(ctx context.Context, in *agd.GroupStream, dst io.Writer) (uint64, error) {
	return ExportStreamOn(ctx, in, dst, nil)
}

// ExportStreamOn is ExportStream with the BGZF blocks compressed as tasks on
// exec (nil: on the calling goroutine). The bytes are the same either way.
func ExportStreamOn(ctx context.Context, in *agd.GroupStream, dst io.Writer, exec *dataflow.Executor) (uint64, error) {
	refmap := sam.NewRefMap(in.Meta.RefSeqs)
	sortOrder := "unsorted"
	if in.Meta.SortedBy == "location" {
		sortOrder = "coordinate"
	}
	w, err := NewWriter(bgzf.NewWriter(dst, exec), in.Meta.RefSeqs, sortOrder)
	if err != nil {
		return 0, err
	}
	var n uint64
	err = sam.StreamGroups(ctx, in, func(meta, seq, qual []byte, v *agd.ResultView) error {
		n++
		return w.WriteView(meta, seq, qual, v, refmap)
	})
	if err != nil {
		return n, err
	}
	return n, w.Close()
}

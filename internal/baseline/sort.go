package baseline

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"runtime"

	"persona/internal/agd"
	"persona/internal/dataflow"
	"persona/internal/formats/bam"
	"persona/internal/formats/bgzf"
	"persona/internal/formats/sam"
)

// SamtoolsSortBAM models `samtools sort` with threads: it parses an entire
// BAM stream into row records, sorts by coordinate, and writes a sorted BAM
// with its BGZF blocks compressed on an executor of NumCPU workers. All
// columns of every record are decompressed, parsed and re-compressed —
// exactly the row-orientation tax Table 2 measures against AGD.
func SamtoolsSortBAM(in io.Reader, out io.Writer) (int, error) {
	r, err := bam.NewReader(in)
	if err != nil {
		return 0, errRecordf("samtools-sort", err)
	}
	refs := r.Refs()
	idx := refIndex(refs)
	var recs []sortKeyed
	for r.Scan() {
		rec := r.Record()
		recs = append(recs, keyOf(&rec, idx))
	}
	if err := r.Err(); err != nil {
		return 0, errRecordf("samtools-sort", err)
	}
	coordinateSort(recs)
	exec := dataflow.NewExecutor(runtime.NumCPU(), 2*runtime.NumCPU())
	defer exec.Close()
	w, err := bam.NewWriter(bgzf.NewWriter(out, exec), refs, "coordinate")
	if err != nil {
		return 0, errRecordf("samtools-sort", err)
	}
	for i := range recs {
		if err := w.Write(&recs[i].rec); err != nil {
			return 0, errRecordf("samtools-sort", err)
		}
	}
	if err := w.Close(); err != nil {
		return 0, errRecordf("samtools-sort", err)
	}
	return len(recs), nil
}

// ConvertSAMToBAM models the `samtools view -b` conversion step that Table 2
// bills separately ("Samtools requires sorting input in BAM format").
func ConvertSAMToBAM(in io.Reader, out io.Writer, refs []agd.RefSeq) (int, error) {
	sc := sam.NewScanner(in)
	w, err := bam.NewWriter(bgzf.NewWriter(out, nil), refs, "unsorted")
	if err != nil {
		return 0, errRecordf("sam2bam", err)
	}
	n := 0
	for sc.Scan() {
		rec := sc.Record()
		if err := w.Write(&rec); err != nil {
			return n, errRecordf("sam2bam", err)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, errRecordf("sam2bam", err)
	}
	return n, w.Close()
}

// PicardSortSAM models Picard's SortSam: strictly single-threaded (§5.6:
// "Picard does not have an option for multithreading"), SAM text in, sorted
// BAM out (SortSam's usual deployment), with per-record defensive copies
// standing in for Picard's per-record JVM object allocation.
func PicardSortSAM(in io.Reader, out io.Writer, refs []agd.RefSeq) (int, error) {
	sc := sam.NewScanner(in)
	idx := refIndex(refs)
	var recs []sortKeyed
	for sc.Scan() {
		rec := sc.Record()
		// Deliberate per-record copy churn: Picard materializes a
		// SAMRecord object graph per row.
		cp := rec
		cp.Name = string(append([]byte{}, rec.Name...))
		cp.Seq = string(append([]byte{}, rec.Seq...))
		cp.Qual = string(append([]byte{}, rec.Qual...))
		cp.Cigar = string(append([]byte{}, rec.Cigar...))
		recs = append(recs, keyOf(&cp, idx))
	}
	if err := sc.Err(); err != nil {
		return 0, errRecordf("picard-sort", err)
	}
	coordinateSort(recs)
	// Picard's Deflater runs at its default level and cannot be
	// parallelized; together with the single-threaded sort this is where
	// the paper's 5.15x gap comes from.
	w, err := bam.NewWriter(&jvmDeflater{w: out}, refs, "coordinate")
	if err != nil {
		return 0, errRecordf("picard-sort", err)
	}
	for i := range recs {
		if err := w.Write(&recs[i].rec); err != nil {
			return 0, errRecordf("picard-sort", err)
		}
	}
	if err := w.Close(); err != nil {
		return 0, errRecordf("picard-sort", err)
	}
	return len(recs), nil
}

// jvmDeflater is the BGZF writer of the JVM-era tools Picard stands for:
// the blocks bgzf.Writer frames, each compressed by compress/gzip at
// java.util.zip.Deflater's default level with a fresh deflater per block, on
// the calling thread. Keeping it here keeps a second compressor out of the
// product's BGZF writer.
type jvmDeflater struct {
	w   io.Writer
	buf []byte
}

// Write buffers p, compressing each block as it fills.
func (d *jvmDeflater) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		n := min(len(p), bgzf.MaxBlockSize-len(d.buf))
		d.buf = append(d.buf, p[:n]...)
		p = p[n:]
		if len(d.buf) == bgzf.MaxBlockSize {
			if err := d.flush(); err != nil {
				return total - len(p), err
			}
		}
	}
	return total, nil
}

// flush writes the buffered payload as one block: a gzip member whose BC
// extra subfield holds the block's size less one. A payload of at most
// bgzf.MaxBlockSize bytes compresses to a block that fits those 16 bits.
func (d *jvmDeflater) flush() error {
	var block bytes.Buffer
	zw, err := gzip.NewWriterLevel(&block, gzip.DefaultCompression)
	if err != nil {
		return err
	}
	zw.Extra = []byte{'B', 'C', 2, 0, 0, 0}
	if _, err := zw.Write(d.buf); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	b := block.Bytes()
	binary.LittleEndian.PutUint16(b[16:], uint16(len(b)-1))
	d.buf = d.buf[:0]
	_, err = d.w.Write(b)
	return err
}

// Close writes the last block and the format's EOF marker.
func (d *jvmDeflater) Close() error {
	if len(d.buf) > 0 {
		if err := d.flush(); err != nil {
			return err
		}
	}
	_, err := d.w.Write(bgzf.EOFMarker)
	return err
}

package bam

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strings"

	"persona/internal/agd"
	"persona/internal/align"
	"persona/internal/formats/bgzf"
	"persona/internal/formats/sam"
)

// Reader parses a BAM file.
type Reader struct {
	r     *bufio.Reader
	refs  []agd.RefSeq
	text  string
	block []byte // the record being parsed, reused across Scan calls
	rec   sam.Record
	err   error
}

// NewReader parses the BAM header of the BGZF stream in r. A stream that
// ends inside the header returns an error wrapping io.ErrUnexpectedEOF.
func NewReader(r io.Reader) (*Reader, error) {
	rd := &Reader{r: bufio.NewReaderSize(bgzf.NewReader(r), 1<<16)}
	if err := rd.readHeader(); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("bam: reading header: %w", err)
	}
	return rd, nil
}

func (rd *Reader) readHeader() error {
	var magic [4]byte
	if _, err := io.ReadFull(rd.r, magic[:]); err != nil {
		return err
	}
	if !bytes.Equal(magic[:], bamMagic) {
		return fmt.Errorf("bad magic %q", magic)
	}
	text, err := readSized(rd.r, nil)
	if err != nil {
		return err
	}
	rd.text = string(text)
	nRef, err := read32(rd.r)
	// Every reference takes 8 bytes of the stream or more, so refs grows
	// with what is read, never with what nRef claims.
	for i := uint32(0); i < nRef && err == nil; i++ {
		if text, err = readSized(rd.r, text); err == nil {
			var n uint32
			n, err = read32(rd.r)
			rd.refs = append(rd.refs, agd.RefSeq{Name: strings.TrimRight(string(text), "\x00"), Length: int64(n)})
		}
	}
	return err
}

func read32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// readSized reads a 32-bit little-endian length and then that many bytes
// (l_text, l_name, block_size) into buf[:0], which grows at most 64 KiB
// ahead of the bytes read: a corrupt length asks for no more memory than
// the stream holds. A stream that ends before the length returns io.EOF,
// one that ends inside the field an error wrapping io.ErrUnexpectedEOF.
func readSized(r io.Reader, buf []byte) ([]byte, error) {
	n, err := read32(r)
	buf = buf[:0]
	for err == nil && uint32(len(buf)) < n {
		off, step := len(buf), int(min(n-uint32(len(buf)), 64<<10))
		buf = slices.Grow(buf, step)[:off+step]
		if _, err = io.ReadFull(r, buf[off:]); err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	}
	return buf, err
}

// Refs returns the reference dictionary.
func (r *Reader) Refs() []agd.RefSeq { return r.refs }

// HeaderText returns the SAM text header embedded in the BAM header.
func (r *Reader) HeaderText() string { return r.text }

// Scan advances to the next alignment record.
func (r *Reader) Scan() bool {
	if r.err != nil {
		return false
	}
	block, err := readSized(r.r, r.block)
	if err != nil {
		if err != io.EOF {
			r.err = fmt.Errorf("bam: truncated record: %w", err)
		}
		return false
	}
	r.block = block
	rec, err := parseRecord(block, r.refs)
	if err != nil {
		r.err = err
		return false
	}
	r.rec = rec
	return true
}

// Record returns the current record.
func (r *Reader) Record() sam.Record { return r.rec }

// Err returns the first error encountered (nil at clean EOF).
func (r *Reader) Err() error { return r.err }

func parseRecord(b []byte, refs []agd.RefSeq) (sam.Record, error) {
	var rec sam.Record
	if len(b) < 32 {
		return rec, fmt.Errorf("bam: record too short (%d bytes)", len(b))
	}
	le := binary.LittleEndian
	refID := int32(le.Uint32(b[0:4]))
	pos := int32(le.Uint32(b[4:8]))
	lReadName := int(b[8])
	rec.MapQ = b[9]
	nCigar := int(le.Uint16(b[12:14]))
	rec.Flags = le.Uint16(b[14:16])
	lSeq := int(le.Uint32(b[16:20]))
	nextRefID := int32(le.Uint32(b[20:24]))
	nextPos := int32(le.Uint32(b[24:28]))
	rec.TLen = int32(le.Uint32(b[28:32]))

	refName := func(id int32) string {
		if id < 0 || int(id) >= len(refs) {
			return "*"
		}
		return refs[id].Name
	}
	rec.Ref = refName(refID)
	rec.Pos = int64(pos) + 1
	if rec.Ref == "*" {
		rec.Pos = 0
	}
	rec.RNext = refName(nextRefID)
	rec.PNext = int64(nextPos) + 1
	if rec.RNext == "*" {
		rec.PNext = 0
	} else if rec.RNext == rec.Ref && rec.Ref != "*" {
		rec.RNext = "="
	}

	off := 32
	if off+lReadName > len(b) {
		return rec, fmt.Errorf("bam: record name overruns block")
	}
	rec.Name = strings.TrimRight(string(b[off:off+lReadName]), "\x00")
	off += lReadName

	if off+nCigar*4 > len(b) {
		return rec, fmt.Errorf("bam: cigar overruns block")
	}
	var cigar align.Cigar
	for i := 0; i < nCigar; i++ {
		v := le.Uint32(b[off : off+4])
		off += 4
		op, err := align.CigarOpFromBAM(int(v & 0xf))
		if err != nil {
			return rec, err
		}
		if v>>4 == 0 {
			// A CIGAR text with a zero-length op does not parse either.
			return rec, fmt.Errorf("bam: cigar op %d has length 0", i)
		}
		cigar = append(cigar, align.CigarElem{Len: int(v >> 4), Op: op})
	}
	rec.Cigar = cigar.String()
	if nCigar == 0 {
		rec.Cigar = "*"
	}

	seqBytes := (lSeq + 1) / 2
	if off+seqBytes+lSeq > len(b) {
		return rec, fmt.Errorf("bam: seq/qual overruns block")
	}
	seq := make([]byte, lSeq)
	for i := 0; i < lSeq; i++ {
		nib := b[off+i/2]
		if i%2 == 0 {
			nib >>= 4
		}
		seq[i] = nibbleSeq(nib & 0xf)
	}
	off += seqBytes
	rec.Seq = string(seq)
	qual := make([]byte, lSeq)
	for i := 0; i < lSeq; i++ {
		qual[i] = b[off+i] + '!'
	}
	rec.Qual = string(qual)
	return rec, nil
}

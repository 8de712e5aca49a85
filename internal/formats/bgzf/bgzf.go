// Package bgzf implements the Blocked GZIP Format used by BAM: a series of
// independently decompressible gzip members, each carrying its compressed
// size in a "BC" extra subfield, terminated by a fixed empty EOF block.
// Block independence is what makes BAM seekable; Persona's row-oriented
// baselines use it the way samtools does.
//
// Blocks are deflated and inflated by internal/deflate, whole block to whole
// block in memory: a block's payload is at most MaxBlockSize bytes and both
// its sizes are stated up front (BSIZE, ISIZE), which is all that codec
// needs. What is written is ordinary multi-member gzip that compress/gzip,
// samtools and htslib read. Only the non-default levels of NewWriterLevel,
// which stand in for JVM-era tools, still go through compress/gzip.
package bgzf

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"persona/internal/deflate"
)

// MaxBlockSize is the maximum uncompressed payload per BGZF block, chosen so
// the compressed block size always fits the 16-bit BSIZE field.
const MaxBlockSize = 0xff00

const (
	// headerSize is the fixed gzip header plus XLEN and the BC subfield;
	// BSIZE (total block size − 1) is its last two bytes.
	headerSize  = 18
	trailerSize = 8 // CRC-32, ISIZE
	// maxPayload is the largest ISIZE the format allows.
	maxPayload = 1 << 16
)

// bcExtra is the FEXTRA content of a block this package writes: the BC
// subfield with BSIZE still to be filled in.
var bcExtra = []byte{'B', 'C', 2, 0, 0, 0}

// eofMarker is the specification's 28-byte empty terminal block.
var eofMarker = []byte{
	0x1f, 0x8b, 0x08, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff,
	0x06, 0x00, 0x42, 0x43, 0x02, 0x00, 0x1b, 0x00, 0x03, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
}

// Writer compresses a stream into BGZF blocks.
type Writer struct {
	w     io.Writer
	buf   []byte // payload of the block being filled
	block []byte // the last block written, reused
	level int
	err   error
}

// NewWriter returns a BGZF writer over w compressing at gzip.BestSpeed.
func NewWriter(w io.Writer) *Writer {
	return NewWriterLevel(w, gzip.BestSpeed)
}

// NewWriterLevel returns a BGZF writer compressing at the given gzip level
// (tools differ here: htslib-era tools favour speed, Picard-era defaults
// favour ratio, and the difference is visible in Table 2).
func NewWriterLevel(w io.Writer, level int) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, MaxBlockSize), level: level}
}

// Write buffers p, flushing full blocks as they fill.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	total := len(p)
	for len(p) > 0 {
		room := MaxBlockSize - len(w.buf)
		n := len(p)
		if n > room {
			n = room
		}
		w.buf = append(w.buf, p[:n]...)
		p = p[n:]
		if len(w.buf) == MaxBlockSize {
			if w.err = w.flushBlock(); w.err != nil {
				return total - len(p), w.err
			}
		}
	}
	return total, nil
}

// flushBlock emits the buffered payload as one BGZF block.
func (w *Writer) flushBlock() error {
	if len(w.buf) == 0 {
		return nil
	}
	var err error
	if w.block, err = compressBlockLevel(w.block[:0], w.buf, w.level); err != nil {
		return err
	}
	if _, err := w.w.Write(w.block); err != nil {
		return err
	}
	w.buf = w.buf[:0]
	return nil
}

// Close flushes the final partial block and writes the EOF marker. It does
// not close the underlying writer.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if err := w.flushBlock(); err != nil {
		w.err = err
		return err
	}
	_, err := w.w.Write(eofMarker)
	w.err = errors.New("bgzf: writer closed")
	return err
}

// compressBlock appends payload (at most MaxBlockSize bytes) to dst as one
// BGZF block; shared by Writer and ParallelWriter. The encoder stores what
// does not compress, so a block is never more than headerSize + 5 +
// trailerSize bytes longer than its payload and BSIZE always fits.
func compressBlock(dst, payload []byte) []byte {
	base := len(dst)
	dst = deflate.AppendGzip(dst, payload, crc32.ChecksumIEEE(payload), bcExtra)
	binary.LittleEndian.PutUint16(dst[base+headerSize-2:], uint16(len(dst)-base-1))
	return dst
}

// compressBlockLevel is compressBlock at an arbitrary gzip level. Levels
// other than BestSpeed go through compress/gzip and allocate a fresh
// deflater per block, which is faithful to the per-record churn of the JVM
// tools that use them.
func compressBlockLevel(dst, payload []byte, level int) ([]byte, error) {
	if level == gzip.BestSpeed || level == 0 {
		return compressBlock(dst, payload), nil
	}
	var zbuf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&zbuf, level)
	if err != nil {
		return nil, err
	}
	zw.Extra = bcExtra
	if _, err := zw.Write(payload); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	block := zbuf.Bytes()
	if len(block) > 0xffff+1 {
		return nil, fmt.Errorf("bgzf: compressed block too large (%d bytes)", len(block))
	}
	binary.LittleEndian.PutUint16(block[headerSize-2:], uint16(len(block)-1))
	return append(dst, block...), nil
}

// Reader decompresses a BGZF stream block by block.
type Reader struct {
	br    *bufio.Reader
	block []byte // the current block as stored
	data  []byte // its payload
	pos   int    // how much of data Read has handed out
	err   error
}

// NewReader returns a BGZF reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Read implements io.Reader across block boundaries. The stream ends cleanly
// only between blocks: input that stops inside a block is
// io.ErrUnexpectedEOF, and an error of the underlying reader is returned as
// it is.
func (r *Reader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, r.err
	}
	for r.pos == len(r.data) {
		if r.err != nil {
			return 0, r.err
		}
		if r.err = r.nextBlock(); r.err != nil {
			return 0, r.err
		}
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

// fill reads on until r.block holds the block's first n bytes.
func (r *Reader) fill(n int) error {
	have := len(r.block)
	r.block = slices.Grow(r.block, n-have)[:n]
	_, err := io.ReadFull(r.br, r.block[have:])
	if err == io.EOF && have > 0 || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("bgzf: truncated block: %w", io.ErrUnexpectedEOF)
	}
	return err
}

// nextBlock reads one block by its BSIZE and inflates it into r.data. What
// makes the block a sound gzip member — framing, ISIZE, CRC-32 — is
// deflate.Gunzip's to check; only the BC subfield is looked up here.
func (r *Reader) nextBlock() error {
	r.data, r.pos, r.block = r.data[:0], 0, r.block[:0]
	const fixed = 12 // gzip header and XLEN
	if err := r.fill(fixed); err != nil {
		return err // io.EOF between blocks ends the stream
	}
	if hdr := r.block; hdr[0] != 0x1f || hdr[1] != 0x8b || hdr[2] != 8 || hdr[3] != 4 {
		return errors.New("bgzf: not a BGZF block header")
	}
	xlen := int(binary.LittleEndian.Uint16(r.block[10:]))
	if err := r.fill(fixed + xlen); err != nil {
		return err
	}
	bsize := -1
	for extra := r.block[fixed:]; len(extra) >= 4; {
		slen := int(binary.LittleEndian.Uint16(extra[2:]))
		if len(extra)-4 < slen {
			return errors.New("bgzf: extra subfield overruns the extra field")
		}
		if extra[0] == 'B' && extra[1] == 'C' {
			if slen != 2 {
				return fmt.Errorf("bgzf: BC subfield is %d bytes, want 2", slen)
			}
			bsize = int(binary.LittleEndian.Uint16(extra[4:]))
			break
		}
		extra = extra[4+slen:]
	}
	if bsize < 0 {
		return errors.New("bgzf: block has no BC subfield")
	}
	if bsize+1 < fixed+xlen+trailerSize {
		return fmt.Errorf("bgzf: BSIZE %d does not cover the block's header and trailer", bsize)
	}
	if err := r.fill(bsize + 1); err != nil {
		return err
	}
	isize := binary.LittleEndian.Uint32(r.block[bsize+1-4:])
	if isize > maxPayload {
		return fmt.Errorf("bgzf: ISIZE %d exceeds the format's 64 KiB", isize)
	}
	data := growTo(r.data, int(isize))
	want, err := deflate.Gunzip(data, r.block)
	if err != nil {
		return fmt.Errorf("bgzf: block with ISIZE %d: %w", isize, err)
	}
	if got := crc32.ChecksumIEEE(data); got != want {
		return fmt.Errorf("bgzf: block CRC-32 %08x, trailer says %08x", got, want)
	}
	r.data = data
	return nil
}

// growTo returns a slice of exactly n bytes, reusing b's array if it can.
func growTo(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

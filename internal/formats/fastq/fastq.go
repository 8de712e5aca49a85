// Package fastq reads and writes the FASTQ format (§2.2 of the paper): the
// ASCII text format sequencing machines produce, four lines per read
// (@name, bases, +, qualities). Parsing is structural (line positions), so
// the notorious '@' ambiguity — '@' is also a legal quality value — is
// handled correctly.
package fastq

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"

	"persona/internal/reads"
)

// Scanner parses FASTQ records from a stream. Each record's fields are read
// into reused buffers: View exposes them zero-copy (the import hot path),
// Read materializes an owning reads.Read.
type Scanner struct {
	r       *bufio.Reader
	lineNum int
	meta    []byte
	bases   []byte
	quals   []byte
	plus    []byte // '+' separator line scratch
	err     error
}

// NewScanner returns a scanner over r.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{r: bufio.NewReaderSize(r, 1<<16)}
}

// NewGzipScanner returns a scanner over a gzip-compressed FASTQ stream (the
// distribution format; §2.2). The caller owns closing the underlying reader.
// External .gz input is a stream of unknown size from any writer, which is
// compress/gzip's case, not internal/deflate's.
func NewGzipScanner(r io.Reader) (*Scanner, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("fastq: %w", err)
	}
	return NewScanner(zr), nil
}

// Scan advances to the next record, returning false at EOF or on error. A
// record with no bases is an error.
func (s *Scanner) Scan() bool {
	if s.err != nil {
		return false
	}
	var err error
	s.meta, err = s.line(s.meta[:0])
	if err == io.EOF {
		return false
	}
	if err != nil {
		s.err = err
		return false
	}
	if len(s.meta) == 0 || s.meta[0] != '@' {
		s.err = fmt.Errorf("fastq: line %d: record does not start with '@': %q", s.lineNum, s.meta)
		return false
	}
	s.bases, err = s.line(s.bases[:0])
	if err != nil {
		s.err = fmt.Errorf("fastq: line %d: missing bases: %v", s.lineNum, err)
		return false
	}
	s.plus, err = s.line(s.plus[:0])
	if err != nil || len(s.plus) == 0 || s.plus[0] != '+' {
		s.err = fmt.Errorf("fastq: line %d: missing '+' separator", s.lineNum)
		return false
	}
	s.quals, err = s.line(s.quals[:0])
	if err != nil {
		s.err = fmt.Errorf("fastq: line %d: missing qualities: %v", s.lineNum, err)
		return false
	}
	// The two rules of reads.Read.Validate, so that what imports exports.
	if len(s.bases) == 0 {
		s.err = fmt.Errorf("fastq: line %d: %q has no bases", s.lineNum-2, s.meta[1:])
		return false
	}
	if len(s.quals) != len(s.bases) {
		s.err = fmt.Errorf("fastq: line %d: %d bases but %d qualities", s.lineNum, len(s.bases), len(s.quals))
		return false
	}
	return true
}

// line reads one line into buf (reusing its backing array), trimming the
// terminator. io.EOF is returned only when no bytes remain.
func (s *Scanner) line(buf []byte) ([]byte, error) {
	for {
		frag, err := s.r.ReadSlice('\n')
		buf = append(buf, frag...)
		if err == bufio.ErrBufferFull {
			continue
		}
		if len(buf) == 0 && err != nil {
			return nil, err
		}
		s.lineNum++
		for len(buf) > 0 && (buf[len(buf)-1] == '\n' || buf[len(buf)-1] == '\r') {
			buf = buf[:len(buf)-1]
		}
		return buf, nil
	}
}

// View returns the current record's fields (name without '@'), aliasing the
// scanner's reused buffers: valid only until the next Scan. This is the
// zero-allocation path the AGD importer uses.
func (s *Scanner) View() (meta, bases, quals []byte) {
	return s.meta[1:], s.bases, s.quals
}

// Read returns an owning copy of the current record.
func (s *Scanner) Read() reads.Read {
	meta, bases, quals := s.View()
	return reads.Read{
		Meta:  string(meta),
		Bases: append([]byte{}, bases...),
		Quals: append([]byte{}, quals...),
	}
}

// Err returns the first error encountered (nil at clean EOF).
func (s *Scanner) Err() error { return s.err }

// Writer emits FASTQ records.
type Writer struct {
	w *bufio.Writer
}

// NewWriter returns a FASTQ writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write emits one record.
func (w *Writer) Write(r *reads.Read) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if err := w.w.WriteByte('@'); err != nil {
		return err
	}
	if _, err := w.w.WriteString(r.Meta); err != nil {
		return err
	}
	return w.tail(r.Bases, r.Quals)
}

// WriteFields emits one record from raw field bytes — the export hot path,
// no reads.Read materialization.
func (w *Writer) WriteFields(meta, bases, quals []byte) error {
	if len(bases) == 0 {
		return fmt.Errorf("reads: %q has no bases", meta)
	}
	if len(bases) != len(quals) {
		return fmt.Errorf("reads: %q has %d bases but %d quals", meta, len(bases), len(quals))
	}
	if err := w.w.WriteByte('@'); err != nil {
		return err
	}
	if _, err := w.w.Write(meta); err != nil {
		return err
	}
	return w.tail(bases, quals)
}

// tail writes the bases / separator / qualities lines.
func (w *Writer) tail(bases, quals []byte) error {
	if err := w.w.WriteByte('\n'); err != nil {
		return err
	}
	if _, err := w.w.Write(bases); err != nil {
		return err
	}
	if _, err := w.w.WriteString("\n+\n"); err != nil {
		return err
	}
	if _, err := w.w.Write(quals); err != nil {
		return err
	}
	return w.w.WriteByte('\n')
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// Package sam reads and writes the Sequence Alignment/Map text format
// (§2.2 of the paper): the de facto row-oriented standard for aligned reads.
// Persona uses it for compatibility with tools that have not been ported to
// AGD (§4.4).
package sam

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"persona/internal/agd"
)

// Record is one SAM alignment line.
type Record struct {
	Name  string
	Flags uint16
	Ref   string // "*" if unmapped
	Pos   int64  // 1-based leftmost position; 0 if unmapped
	MapQ  uint8
	Cigar string // "*" if unmapped
	// RNext/PNext describe the mate; "*"/0 when absent.
	RNext string
	PNext int64
	TLen  int32
	Seq   string
	Qual  string
}

// RefMap translates between global genome coordinates and (contig,
// position) pairs using the reference info carried in an AGD manifest.
type RefMap struct {
	seqs    []agd.RefSeq
	offsets []int64
}

// NewRefMap builds a RefMap from manifest reference sequences.
func NewRefMap(seqs []agd.RefSeq) *RefMap {
	m := &RefMap{seqs: seqs, offsets: make([]int64, len(seqs)+1)}
	for i, s := range seqs {
		m.offsets[i+1] = m.offsets[i] + s.Length
	}
	return m
}

// Locate translates a global position to (contig name, 0-based offset).
// The binary search is hand-rolled: sort.Search's closure would allocate on
// every call, and Locate runs once (or twice, paired) per exported record.
func (m *RefMap) Locate(global int64) (string, int64, error) {
	if global < 0 || global >= m.offsets[len(m.offsets)-1] {
		return "", 0, fmt.Errorf("sam: global position %d out of range", global)
	}
	lo, hi := 0, len(m.seqs)-1 // first contig whose end exceeds global
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.offsets[mid+1] > global {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return m.seqs[lo].Name, global - m.offsets[lo], nil
}

// Global translates (contig name, 0-based offset) to a global position.
func (m *RefMap) Global(ref string, pos int64) (int64, error) {
	for i, s := range m.seqs {
		if s.Name == ref {
			if pos < 0 || pos >= s.Length {
				return 0, fmt.Errorf("sam: position %d out of range for %q", pos, ref)
			}
			return m.offsets[i] + pos, nil
		}
	}
	return 0, fmt.Errorf("sam: unknown reference %q", ref)
}

// GlobalBytes is Global for a byte-slice reference name (the import hot
// path; the comparison converts without allocating).
func (m *RefMap) GlobalBytes(ref []byte, pos int64) (int64, error) {
	for i, s := range m.seqs {
		if s.Name == string(ref) {
			if pos < 0 || pos >= s.Length {
				return 0, fmt.Errorf("sam: position %d out of range for %q", pos, ref)
			}
			return m.offsets[i] + pos, nil
		}
	}
	return 0, fmt.Errorf("sam: unknown reference %q", ref)
}

// Writer emits a SAM file: header then records. Records are rendered into a
// reused line buffer with append-based encoding, so writing is
// allocation-free in steady state.
type Writer struct {
	w    *bufio.Writer
	line []byte
}

// NewWriter writes a SAM header for the given references and returns a
// record writer. sortOrder is the @HD SO field ("unsorted", "coordinate",
// "queryname").
func NewWriter(w io.Writer, refs []agd.RefSeq, sortOrder string) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if sortOrder == "" {
		sortOrder = "unsorted"
	}
	if _, err := fmt.Fprintf(bw, "@HD\tVN:1.6\tSO:%s\n", sortOrder); err != nil {
		return nil, err
	}
	for _, r := range refs {
		if _, err := fmt.Fprintf(bw, "@SQ\tSN:%s\tLN:%d\n", r.Name, r.Length); err != nil {
			return nil, err
		}
	}
	if _, err := fmt.Fprintf(bw, "@PG\tID:persona\tPN:persona\n"); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write emits one record.
func (w *Writer) Write(r *Record) error {
	ref, cigar, rnext := r.Ref, r.Cigar, r.RNext
	if ref == "" {
		ref = "*"
	}
	if cigar == "" {
		cigar = "*"
	}
	if rnext == "" {
		rnext = "*"
	}
	b := w.line[:0]
	b = append(b, r.Name...)
	b = appendFixedFields(b, r.Flags, ref, r.Pos, r.MapQ)
	b = append(b, cigar...)
	b = appendMateFields(b, rnext, r.PNext, r.TLen)
	b = append(b, r.Seq...)
	b = append(b, '\t')
	b = append(b, r.Qual...)
	b = append(b, '\n')
	return w.writeLine(b)
}

// WriteView emits one record assembled from AGD column bytes and a decoded
// result view — the zero-allocation export path. seq and qual must already
// be in SAM orientation (reverse-strand reads reverse-complemented /
// reversed by the caller).
func (w *Writer) WriteView(name, seq, qual []byte, v *agd.ResultView, refmap *RefMap) error {
	ref, pos := "*", int64(0)
	cigar := v.Cigar
	if v.IsUnmapped() {
		cigar = nil
	} else {
		r, p, err := refmap.Locate(v.Location)
		if err != nil {
			return err
		}
		ref, pos = r, p+1
	}
	rnext, pnext := "*", int64(0)
	if v.Flags&agd.FlagPaired != 0 && v.MateLocation >= 0 {
		r, p, err := refmap.Locate(v.MateLocation)
		if err != nil {
			return err
		}
		if ref != "*" && r == ref {
			rnext = "="
		} else {
			rnext = r
		}
		pnext = p + 1
	}
	b := w.line[:0]
	b = append(b, name...)
	b = appendFixedFields(b, v.Flags, ref, pos, v.MapQ)
	if len(cigar) == 0 {
		b = append(b, '*')
	} else {
		b = append(b, cigar...)
	}
	b = appendMateFields(b, rnext, pnext, v.TemplateLen)
	b = append(b, seq...)
	b = append(b, '\t')
	b = append(b, qual...)
	b = append(b, '\n')
	return w.writeLine(b)
}

// appendFixedFields renders "\t<flags>\t<ref>\t<pos>\t<mapq>\t" — the fields
// between the name and the CIGAR.
func appendFixedFields(b []byte, flags uint16, ref string, pos int64, mapq uint8) []byte {
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(flags), 10)
	b = append(b, '\t')
	b = append(b, ref...)
	b = append(b, '\t')
	b = strconv.AppendInt(b, pos, 10)
	b = append(b, '\t')
	b = strconv.AppendUint(b, uint64(mapq), 10)
	b = append(b, '\t')
	return b
}

// appendMateFields renders "\t<rnext>\t<pnext>\t<tlen>\t" — the fields
// between the CIGAR and the sequence.
func appendMateFields(b []byte, rnext string, pnext int64, tlen int32) []byte {
	b = append(b, '\t')
	b = append(b, rnext...)
	b = append(b, '\t')
	b = strconv.AppendInt(b, pnext, 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(tlen), 10)
	b = append(b, '\t')
	return b
}

func (w *Writer) writeLine(b []byte) error {
	w.line = b
	_, err := w.w.Write(b)
	return err
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// Scanner parses SAM files, skipping the header (which it retains).
type Scanner struct {
	r      *bufio.Reader
	header []string
	rec    Record
	err    error
	line   int
}

// NewScanner returns a scanner over r, consuming the header immediately.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{r: bufio.NewReaderSize(r, 1<<16)}
}

// Header returns the header lines seen so far (fully populated after the
// first Scan).
func (s *Scanner) Header() []string { return s.header }

// Scan advances to the next alignment record.
func (s *Scanner) Scan() bool {
	if s.err != nil {
		return false
	}
	for {
		line, err := s.r.ReadString('\n')
		if len(line) == 0 && err != nil {
			return false
		}
		s.line++
		line = strings.TrimRight(line, "\r\n")
		if len(line) == 0 {
			continue
		}
		if line[0] == '@' {
			s.header = append(s.header, line)
			continue
		}
		rec, err := ParseRecord(line)
		if err != nil {
			s.err = fmt.Errorf("sam: line %d: %w", s.line, err)
			return false
		}
		s.rec = rec
		return true
	}
}

// Record returns the current record.
func (s *Scanner) Record() Record { return s.rec }

// Err returns the first parse error (nil at clean EOF).
func (s *Scanner) Err() error { return s.err }

// ParseRecord parses one SAM alignment line.
func ParseRecord(line string) (Record, error) {
	var r Record
	fields := strings.Split(line, "\t")
	if len(fields) < 11 {
		return r, fmt.Errorf("only %d fields", len(fields))
	}
	r.Name = fields[0]
	flags, err := strconv.ParseUint(fields[1], 10, 16)
	if err != nil {
		return r, fmt.Errorf("flags: %v", err)
	}
	r.Flags = uint16(flags)
	r.Ref = fields[2]
	pos, err := strconv.ParseInt(fields[3], 10, 64)
	if err != nil {
		return r, fmt.Errorf("pos: %v", err)
	}
	r.Pos = pos
	mapq, err := strconv.ParseUint(fields[4], 10, 8)
	if err != nil {
		return r, fmt.Errorf("mapq: %v", err)
	}
	r.MapQ = uint8(mapq)
	r.Cigar = fields[5]
	r.RNext = fields[6]
	pnext, err := strconv.ParseInt(fields[7], 10, 64)
	if err != nil {
		return r, fmt.Errorf("pnext: %v", err)
	}
	r.PNext = pnext
	tlen, err := strconv.ParseInt(fields[8], 10, 32)
	if err != nil {
		return r, fmt.Errorf("tlen: %v", err)
	}
	r.TLen = int32(tlen)
	r.Seq = fields[9]
	r.Qual = fields[10]
	return r, nil
}

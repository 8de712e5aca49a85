package sam

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"persona/internal/agd"
	"persona/internal/genome"
)

// ImportOptions configures SAM → AGD conversion.
type ImportOptions struct {
	// ChunkSize is records per AGD chunk (default agd.DefaultChunkSize).
	ChunkSize int
}

// ImportStream parses an aligned SAM stream into a pipeline group stream of
// all four standard columns (bases, qual, metadata, results) — the ingestion
// path for data aligned by tools that have not been ported to AGD, as a
// pipeline source. The header is read before it returns: the @SQ lines give
// the stream's reference sequences and @HD's SO its sort order. Each group
// holds ChunkSize records, built into reused builders (valid until the next
// group).
//
// Parsing is byte-level into reused buffers: fields flow from the input
// straight into the chunk builders without materializing Record objects or
// strings, so steady-state import performs no per-record allocation. A
// malformed record, or a read error, surfaces from Next.
func ImportStream(src io.Reader, opts ImportOptions) (*agd.GroupStream, error) {
	chunkSize := opts.ChunkSize
	if chunkSize <= 0 {
		chunkSize = agd.DefaultChunkSize
	}
	im := &importer{br: bufio.NewReaderSize(src, 1<<16)}
	// The header is complete once the first record appears.
	var header []string
	more, err := im.nextLine()
	for ; more && im.line[0] == '@'; more, err = im.nextLine() {
		header = append(header, string(im.line))
	}
	if err != nil {
		return nil, err
	}
	refs, err := refsFromHeader(header)
	if err != nil {
		return nil, err
	}
	if !more {
		return nil, fmt.Errorf("sam: stream has no alignment records")
	}
	im.refmap = NewRefMap(refs)
	meta := agd.StreamMeta{
		Columns:   []string{agd.ColBases, agd.ColQual, agd.ColMetadata, agd.ColResults},
		RefSeqs:   refs,
		SortedBy:  sortOrderFromHeader(header),
		ChunkSize: chunkSize,
	}
	specs := append(agd.StandardReadColumns(), agd.ColumnSpec{Name: agd.ColResults, Type: agd.TypeResults})
	pending := true // im.line holds a record not yet parsed
	return agd.FillStream(meta, specs, 0, func(b []*agd.ChunkBuilder) (int, error) {
		rows := 0
		for rows < chunkSize {
			if !pending {
				ok, err := im.nextLine()
				if err != nil || !ok {
					return rows, err
				}
				if im.line[0] == '@' {
					continue
				}
			}
			pending = false
			if err := im.record(b); err != nil {
				return rows, err
			}
			rows++
		}
		return rows, nil
	}), nil
}

// importer is ImportStream's parser state: the input, the line in hand and
// the reused per-record scratch.
type importer struct {
	br      *bufio.Reader
	refmap  *RefMap
	line    []byte
	lineNum int // non-empty lines read
	eof     bool
	fields  [][]byte
	rc      []byte // reverse-complement scratch
	qrev    []byte // reversed-quality scratch
	resBuf  []byte // encoded result scratch
}

// nextLine reads the next non-empty line into im.line, reporting false at
// the end of the input.
func (im *importer) nextLine() (bool, error) {
	for !im.eof {
		var err error
		im.line, err = readLine(im.br, im.line[:0])
		if err == io.EOF {
			im.eof = true
		} else if err != nil {
			return false, err
		}
		if len(im.line) > 0 {
			im.lineNum++
			return true, nil
		}
	}
	return false, nil
}

// record parses the record line in hand and appends it to the builders of
// the bases, qual, metadata and results columns.
func (im *importer) record(b []*agd.ChunkBuilder) error {
	lineNum := im.lineNum
	im.fields = splitTabs(im.fields[:0], im.line)
	fields := im.fields
	if len(fields) < 11 {
		return fmt.Errorf("sam: line %d: only %d fields", lineNum, len(fields))
	}
	flags, err := parseUintField(fields[1], 16, lineNum, "flags")
	if err != nil {
		return err
	}
	pos, err := parseIntField(fields[3], 64, lineNum, "pos")
	if err != nil {
		return err
	}
	mapq, err := parseUintField(fields[4], 8, lineNum, "mapq")
	if err != nil {
		return err
	}
	pnext, err := parseIntField(fields[7], 64, lineNum, "pnext")
	if err != nil {
		return err
	}
	tlen, err := parseIntField(fields[8], 32, lineNum, "tlen")
	if err != nil {
		return err
	}
	rname, ref, cigar, rnext := fields[0], fields[2], fields[5], fields[6]
	seq, qual := fields[9], fields[10]

	v := agd.ResultView{
		Flags:        uint16(flags),
		MapQ:         uint8(mapq),
		TemplateLen:  int32(tlen),
		Cigar:        cigar,
		Location:     agd.UnmappedLocation,
		MateLocation: agd.UnmappedLocation,
	}
	if len(cigar) == 1 && cigar[0] == '*' {
		v.Cigar = nil
	}
	if v.Flags&agd.FlagUnmapped == 0 && !isStar(ref) && pos > 0 {
		g, err := im.refmap.GlobalBytes(ref, pos-1)
		if err != nil {
			return fmt.Errorf("sam: record %q: %w", rname, err)
		}
		v.Location = g
	} else {
		v.Cigar = nil
	}
	if !isStar(rnext) && pnext > 0 {
		mref := rnext
		if len(mref) == 1 && mref[0] == '=' {
			mref = ref
		}
		g, err := im.refmap.GlobalBytes(mref, pnext-1)
		if err != nil {
			return fmt.Errorf("sam: record %q: %w", rname, err)
		}
		v.MateLocation = g
	}
	// SAM stores reverse-strand SEQ reverse-complemented; AGD stores
	// reads as sequenced, so undo the transformation on the way in.
	if v.IsReverse() && !v.IsUnmapped() {
		im.rc = genome.ReverseComplementScratch(im.rc, seq)
		im.qrev = genome.ReverseScratch(im.qrev, qual)
		seq, qual = im.rc, im.qrev
	}
	im.resBuf = agd.EncodeResultView(im.resBuf[:0], &v)
	b[0].AppendBases(seq)
	b[1].Append(qual)
	b[2].Append(rname)
	b[3].Append(im.resBuf)
	return nil
}

// readLine appends the next input line (terminator trimmed) to buf, reusing
// its backing array. At end of input it returns the final (possibly empty)
// line together with io.EOF.
func readLine(r *bufio.Reader, buf []byte) ([]byte, error) {
	for {
		frag, err := r.ReadSlice('\n')
		buf = append(buf, frag...)
		if err == bufio.ErrBufferFull {
			continue
		}
		for len(buf) > 0 && (buf[len(buf)-1] == '\n' || buf[len(buf)-1] == '\r') {
			buf = buf[:len(buf)-1]
		}
		return buf, err
	}
}

// splitTabs appends line's tab-separated fields to dst (aliasing line).
func splitTabs(dst [][]byte, line []byte) [][]byte {
	start := 0
	for i := 0; i < len(line); i++ {
		if line[i] == '\t' {
			dst = append(dst, line[start:i])
			start = i + 1
		}
	}
	return append(dst, line[start:])
}

func isStar(f []byte) bool { return len(f) == 1 && f[0] == '*' }

// parseUintField parses an unsigned decimal field of at most bits bits.
func parseUintField(b []byte, bits int, lineNum int, what string) (uint64, error) {
	var v uint64
	if len(b) == 0 {
		return 0, fmt.Errorf("sam: line %d: empty %s", lineNum, what)
	}
	max := uint64(1)<<bits - 1
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("sam: line %d: bad %s %q", lineNum, what, b)
		}
		v = v*10 + uint64(c-'0')
		if v > max {
			return 0, fmt.Errorf("sam: line %d: %s %q overflows", lineNum, what, b)
		}
	}
	return v, nil
}

// parseIntField parses a signed decimal field of at most bits bits,
// erroring (never truncating) on out-of-range values.
func parseIntField(b []byte, bits, lineNum int, what string) (int64, error) {
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, fmt.Errorf("sam: line %d: empty %s", lineNum, what)
	}
	limit := uint64(1) << (bits - 1) // magnitude limit: 2^(bits-1) negative, 2^(bits-1)-1 positive
	if !neg {
		limit--
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("sam: line %d: bad %s %q", lineNum, what, b)
		}
		// Checked before multiplying, so v*10+d cannot wrap uint64.
		d := uint64(c - '0')
		if v > (limit-d)/10 {
			return 0, fmt.Errorf("sam: line %d: %s %q overflows", lineNum, what, b)
		}
		v = v*10 + d
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

// refsFromHeader extracts the reference dictionary from @SQ lines.
func refsFromHeader(header []string) ([]agd.RefSeq, error) {
	var refs []agd.RefSeq
	for _, line := range header {
		if !strings.HasPrefix(line, "@SQ") {
			continue
		}
		var ref agd.RefSeq
		for _, field := range strings.Split(line, "\t")[1:] {
			switch {
			case strings.HasPrefix(field, "SN:"):
				ref.Name = field[3:]
			case strings.HasPrefix(field, "LN:"):
				l, err := strconv.ParseInt(field[3:], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("sam: bad @SQ LN in %q", line)
				}
				ref.Length = l
			}
		}
		if ref.Name == "" || ref.Length == 0 {
			return nil, fmt.Errorf("sam: incomplete @SQ line %q", line)
		}
		refs = append(refs, ref)
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("sam: header has no @SQ lines")
	}
	return refs, nil
}

// sortOrderFromHeader maps the @HD SO field to the manifest convention.
func sortOrderFromHeader(header []string) string {
	for _, line := range header {
		if !strings.HasPrefix(line, "@HD") {
			continue
		}
		if strings.Contains(line, "SO:coordinate") {
			return "location"
		}
		if strings.Contains(line, "SO:queryname") {
			return "metadata"
		}
	}
	return ""
}

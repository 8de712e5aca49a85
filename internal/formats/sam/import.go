package sam

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"runtime"
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

// Import converts an aligned SAM stream into an AGD dataset with all four
// standard columns (bases, qual, metadata, results) — the ingestion path
// for data aligned by tools that have not been ported to AGD. Reference
// sequences are taken from the @SQ header lines. It returns the manifest
// and the number of records imported.
//
// Parsing is byte-level into reused buffers: fields flow from the input
// straight into the writer's arena-backed chunk builders without
// materializing Record objects or strings, so steady-state import performs
// no per-record allocation. Cancellation and deadline of ctx are checked
// once per output chunk's worth of records. A failed import leaves no blob
// of the dataset and no background store running.
func Import(ctx context.Context, store agd.BlobStore, name string, src io.Reader, opts ImportOptions) (m *agd.Manifest, n uint64, err error) {
	br := bufio.NewReaderSize(src, 1<<16)
	chunkSize := uint64(opts.ChunkSize)
	if chunkSize == 0 {
		chunkSize = agd.DefaultChunkSize
	}
	var (
		w       *agd.Writer
		refmap  *RefMap
		header  []string
		line    []byte
		fields  [][]byte
		rc      []byte // reverse-complement scratch
		qrev    []byte // reversed-quality scratch
		resBuf  []byte // encoded result scratch
		lineNum int
	)
	cols := append(agd.StandardReadColumns(), agd.ColumnSpec{Name: agd.ColResults, Type: agd.TypeResults})
	defer func() {
		if err != nil && w != nil {
			w.Abort()
		}
	}()

	for {
		var rerr error
		line, rerr = readLine(br, line[:0])
		if rerr != nil && rerr != io.EOF {
			return nil, n, rerr
		}
		atEOF := rerr == io.EOF
		if len(line) == 0 {
			if atEOF {
				break
			}
			continue
		}
		lineNum++
		if line[0] == '@' {
			if w == nil {
				header = append(header, string(line))
			}
			if atEOF {
				break
			}
			continue
		}
		if w == nil {
			// The header is complete once the first record appears.
			refs, err := refsFromHeader(header)
			if err != nil {
				return nil, 0, err
			}
			refmap = NewRefMap(refs)
			w, err = agd.NewWriter(store, name, cols, agd.WriterOptions{
				ChunkSize:     opts.ChunkSize,
				RefSeqs:       refs,
				SortedBy:      sortOrderFromHeader(header),
				ParallelFlush: runtime.NumCPU(),
			})
			if err != nil {
				return nil, 0, err
			}
		}

		if n%chunkSize == 0 {
			if err := ctx.Err(); err != nil {
				return nil, n, err
			}
		}
		fields = splitTabs(fields[:0], line)
		if len(fields) < 11 {
			return nil, n, fmt.Errorf("sam: line %d: only %d fields", lineNum, len(fields))
		}
		flags, err := parseUintField(fields[1], 16, lineNum, "flags")
		if err != nil {
			return nil, n, err
		}
		pos, err := parseIntField(fields[3], 64, lineNum, "pos")
		if err != nil {
			return nil, n, err
		}
		mapq, err := parseUintField(fields[4], 8, lineNum, "mapq")
		if err != nil {
			return nil, n, err
		}
		pnext, err := parseIntField(fields[7], 64, lineNum, "pnext")
		if err != nil {
			return nil, n, err
		}
		tlen, err := parseIntField(fields[8], 32, lineNum, "tlen")
		if err != nil {
			return nil, n, err
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
			g, err := refmap.GlobalBytes(ref, pos-1)
			if err != nil {
				return nil, n, fmt.Errorf("sam: record %q: %w", rname, err)
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
			g, err := refmap.GlobalBytes(mref, pnext-1)
			if err != nil {
				return nil, n, fmt.Errorf("sam: record %q: %w", rname, err)
			}
			v.MateLocation = g
		}
		// SAM stores reverse-strand SEQ reverse-complemented; AGD stores
		// reads as sequenced, so undo the transformation on the way in.
		if v.IsReverse() && !v.IsUnmapped() {
			rc = genome.ReverseComplementScratch(rc, seq)
			qrev = genome.ReverseScratch(qrev, qual)
			seq, qual = rc, qrev
		}
		resBuf = agd.EncodeResultView(resBuf[:0], &v)
		if err := w.Append(seq, qual, rname, resBuf); err != nil {
			return nil, n, err
		}
		n++
		if atEOF {
			break
		}
	}
	if w == nil {
		return nil, 0, fmt.Errorf("sam: stream %q has no alignment records", name)
	}
	if m, err = w.Close(); err != nil {
		return nil, n, err
	}
	return m, n, nil
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

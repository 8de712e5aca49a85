package sam

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"persona/internal/agd"
	"persona/internal/genome"
)

// fuzzHeader is the fixed header FuzzImportSAM's record lines follow.
const fuzzHeader = "@HD\tVN:1.6\tSO:coordinate\n@SQ\tSN:chr1\tLN:1000\n@SQ\tSN:chr2\tLN:500\n"

// importedRow is one row as ImportStream stored it.
type importedRow struct {
	res   agd.Result
	bases string // as sequenced, expanded from the bases column
}

// importRows drains ImportStream over src in chunks of three, returning the
// rows delivered and the error that ended the stream (nil at a clean end).
func importRows(src []byte) ([]importedRow, error) {
	in, err := ImportStream(bytes.NewReader(src), ImportOptions{ChunkSize: 3})
	if err != nil {
		return nil, err
	}
	defer in.Close()
	var rows []importedRow
	for {
		g, err := in.Next(context.Background())
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return rows, err
		}
		bases, res := g.Col(in.Meta, agd.ColBases), g.Col(in.Meta, agd.ColResults)
		for r := 0; r < g.NumRecords(); r++ {
			b, err := bases.ExpandBasesRecord(nil, r)
			if err != nil {
				return rows, err
			}
			v, err := res.DecodeResultRecord(r)
			if err != nil {
				return rows, err
			}
			rows = append(rows, importedRow{res: v, bases: string(b)})
		}
		g.Release()
	}
}

// stringRow is the row the string parser reads from one SAM line: ParseRecord
// and ToResult, with a mapped record's "*" CIGAR stored as none, and SEQ
// turned back to the orientation it was sequenced in and read through the
// bases column's alphabet.
func stringRow(line string, refmap *RefMap) (importedRow, error) {
	rec, err := ParseRecord(line)
	if err != nil {
		return importedRow{}, err
	}
	res, err := ToResult(&rec, refmap)
	if err != nil {
		return importedRow{}, err
	}
	if res.Cigar == "*" {
		res.Cigar = ""
	}
	seq := []byte(rec.Seq)
	if res.IsReverse() && !res.IsUnmapped() {
		seq = genome.ReverseComplement(make([]byte, len(seq)), seq)
	}
	for i, b := range seq {
		seq[i] = genome.Letter(genome.Code(b))
	}
	return importedRow{res: res, bases: string(seq)}, nil
}

// recordLines splits text into lines the way the importer reads them and
// keeps the record lines: not empty, not a header line.
func recordLines(text string) []string {
	var lines []string
	for _, line := range strings.Split(text, "\n") {
		if line = strings.TrimRight(line, "\r\n"); line != "" && line[0] != '@' {
			lines = append(lines, line)
		}
	}
	return lines
}

// FuzzImportSAM feeds arbitrary record lines after a fixed two-reference
// header through ImportStream, and holds every row it delivers to the string
// parser twice over. The input line itself, through ParseRecord and
// ToResult, must give the same agd.Result and the same as-sequenced bases.
// So must the row's line in ExportStream's rendering of the same import,
// except for what SAM output does not carry: the mate of a read that is not
// paired. A stream that fails, fails in both passes with the same error, after
// the same rows; no input panics.
func FuzzImportSAM(f *testing.F) {
	for _, seed := range []string{
		"r1\t0\tchr1\t101\t60\t4M\t*\t0\t0\tACGT\tIIII\n",
		"rev\t16\tchr1\t151\t37\t2S6M\t*\t0\t0\tGGTTACAA\tHGFEDCBA\nun\t4\t*\t0\t0\t*\t*\t0\t0\tNNNN\t!!!!\n",
		"p1\t99\tchr1\t201\t55\t4M\t=\t301\t104\tAAAA\tJJJJ\np2\t147\tchr1\t301\t55\t4M\t=\t201\t-104\tCCCC\tKKKK\n",
		"x1\t65\tchr1\t401\t50\t4M\tchr2\t51\t0\tGGGG\tLLLL\r\n\n@CO\tlate header\nx2\t16\t*\t7\t0\t*\t=\t9\t+3\tacgn\t!!!!\n",
		"a\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII\nb\t0\tchr2\t501\t60\t4M\t*\t0\t0\tACGT\tIIII\n",
		"nopos\t16\tchr1\t0\t9\t4M\t*\t0\t0\tAACG\tIIJJ\n",
		"short\t0\tchr1\t1\t60\t4M\t*\n",
		"big\t70000\tchr1\t1\t256\t4M\t*\t0\t2147483648\tACGT\tIIII\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		src := append([]byte(fuzzHeader), body...)
		rows, err := importRows(src)
		in, openErr := ImportStream(bytes.NewReader(src), ImportOptions{ChunkSize: 3})
		if openErr != nil {
			if len(rows) != 0 || err == nil || err.Error() != openErr.Error() {
				t.Fatalf("opening the stream failed with %v, the first pass with %v after %d rows", openErr, err, len(rows))
			}
			return
		}
		refmap := NewRefMap(in.Meta.RefSeqs)
		lines := recordLines(string(body))
		if len(rows) > len(lines) || err == nil && len(rows) != len(lines) {
			t.Fatalf("%d rows from %d record lines (error %v)", len(rows), len(lines), err)
		}
		for i, row := range rows {
			want, perr := stringRow(lines[i], refmap)
			if perr != nil {
				t.Fatalf("row %d: the string parser rejects %q: %v", i, lines[i], perr)
			}
			if row != want {
				t.Fatalf("row %d of %q: imported %+v, the string parser reads %+v", i, lines[i], row, want)
			}
		}

		var out bytes.Buffer
		n, exportErr := ExportStream(context.Background(), in, &out)
		in.Close()
		if n != uint64(len(rows)) || fmt.Sprint(exportErr) != fmt.Sprint(err) {
			t.Fatalf("the export wrote %d rows and failed with %v, the import delivered %d and failed with %v", n, exportErr, len(rows), err)
		}
		exported := recordLines(out.String())
		if len(exported) != len(rows) {
			t.Fatalf("the export rendered %d record lines for %d rows", len(exported), len(rows))
		}
		for i, row := range rows {
			if row.res.Flags&agd.FlagPaired == 0 {
				row.res.MateLocation = agd.UnmappedLocation
			}
			back, perr := stringRow(exported[i], refmap)
			if perr != nil {
				t.Fatalf("row %d: the string parser rejects the exported %q: %v", i, exported[i], perr)
			}
			if back != row {
				t.Fatalf("row %d exported as %q reads back as %+v, imported %+v", i, exported[i], back, row)
			}
		}
	})
}

package bam

import (
	"bytes"
	"testing"

	"persona/internal/agd"
	"persona/internal/formats/bgzf"
	"persona/internal/formats/sam"
)

var testRefs = []agd.RefSeq{
	{Name: "chr1", Length: 1000},
	{Name: "chr2", Length: 500},
}

func TestWriterReaderRoundTrip(t *testing.T) {
	recs := []sam.Record{
		{Name: "r1", Flags: 0, Ref: "chr1", Pos: 100, MapQ: 60, Cigar: "4M", RNext: "*", Seq: "ACGT", Qual: "IIII"},
		{Name: "r2", Flags: agd.FlagUnmapped, Ref: "*", Pos: 0, Cigar: "*", RNext: "*", Seq: "GGGGG", Qual: "!!!!!"},
		{Name: "r3", Flags: agd.FlagPaired | agd.FlagReverse, Ref: "chr2", Pos: 7, MapQ: 13,
			Cigar: "2M1I2M", RNext: "=", PNext: 200, TLen: -150, Seq: "TTTAA", Qual: "ABCDE"},
		{Name: "r4", Flags: agd.FlagPaired, Ref: "chr1", Pos: 50, MapQ: 22,
			Cigar: "3M", RNext: "chr2", PNext: 10, TLen: 0, Seq: "CCC", Qual: "JJJ"},
	}
	var buf bytes.Buffer
	w, err := NewWriter(bgzf.NewWriter(&buf, nil), testRefs, "coordinate")
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Refs()) != 2 || r.Refs()[0].Name != "chr1" || r.Refs()[1].Length != 500 {
		t.Fatalf("refs = %+v", r.Refs())
	}
	if !bytes.Contains([]byte(r.HeaderText()), []byte("SO:coordinate")) {
		t.Fatal("header text missing sort order")
	}

	i := 0
	for r.Scan() {
		got := r.Record()
		want := recs[i]
		if got != want {
			t.Fatalf("record %d:\ngot  %+v\nwant %+v", i, got, want)
		}
		i++
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(recs) {
		t.Fatalf("read %d records, want %d", i, len(recs))
	}
}

func TestWriterRejectsUnknownRef(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(bgzf.NewWriter(&buf, nil), testRefs, "")
	if err != nil {
		t.Fatal(err)
	}
	rec := sam.Record{Name: "r", Ref: "chrX", Pos: 1, Cigar: "1M", Seq: "A", Qual: "I"}
	if err := w.Write(&rec); err == nil {
		t.Fatal("unknown ref accepted")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a bam file at all"))); err == nil {
		t.Fatal("garbage accepted as BAM")
	}
}

func TestOddLengthSeqNibbles(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(bgzf.NewWriter(&buf, nil), testRefs, "")
	if err != nil {
		t.Fatal(err)
	}
	rec := sam.Record{Name: "odd", Ref: "chr1", Pos: 1, MapQ: 1, Cigar: "5M", RNext: "*", Seq: "ACGTN", Qual: "IIIII"}
	if err := w.Write(&rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Scan() {
		t.Fatalf("Scan failed: %v", r.Err())
	}
	if got := r.Record(); got.Seq != "ACGTN" {
		t.Fatalf("seq = %q, want ACGTN", got.Seq)
	}
}

// TestWriterRefusesLongNames: a 255-byte read name does not fit BAM's
// one-byte l_read_name with its NUL, so Write and WriteView refuse it and
// write nothing of that record — the records around it still read back —
// while a 254-byte name, SAM's limit, round-trips through the Reader.
func TestWriterRefusesLongNames(t *testing.T) {
	refmap := sam.NewRefMap(testRefs)
	for _, path := range []string{"Write", "WriteView"} {
		var buf bytes.Buffer
		w, err := NewWriter(bgzf.NewWriter(&buf, nil), testRefs, "")
		if err != nil {
			t.Fatal(err)
		}
		write := func(name string) error {
			rec := sam.Record{Name: name, Ref: "chr1", Pos: 11, MapQ: 60, Cigar: "4M", RNext: "*", Seq: "ACGT", Qual: "IIII"}
			if path == "Write" {
				return w.Write(&rec)
			}
			v := agd.ResultView{Location: 10, MateLocation: -1, MapQ: 60, Cigar: []byte("4M")}
			return w.WriteView([]byte(rec.Name), []byte(rec.Seq), []byte(rec.Qual), &v, refmap)
		}
		long, limit := string(bytes.Repeat([]byte("n"), 255)), string(bytes.Repeat([]byte("m"), 254))
		if err := write("before"); err != nil {
			t.Fatal(err)
		}
		if err := write(long); err == nil {
			t.Fatalf("%s: a 255-byte name was accepted", path)
		}
		if err := write(limit); err != nil {
			t.Fatalf("%s: a 254-byte name: %v", path, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for r.Scan() {
			names = append(names, r.Record().Name)
		}
		if err := r.Err(); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(names) != 2 || names[0] != "before" || names[1] != limit {
			t.Fatalf("%s: read back %d records %q", path, len(names), names)
		}
	}
}

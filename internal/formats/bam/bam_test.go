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

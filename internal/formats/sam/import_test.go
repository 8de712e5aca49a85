package sam

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"persona/internal/agd"
)

const importSample = `@HD	VN:1.6	SO:coordinate
@SQ	SN:chr1	LN:1000
@SQ	SN:chr2	LN:500
r1	0	chr1	101	60	4M	*	0	0	ACGT	IIII
r2	16	chr1	201	37	4M	*	0	0	ACGT	ABCD
r3	4	*	0	0	*	*	0	0	GGGG	!!!!
`

func TestImportSAMRoundTrip(t *testing.T) {
	store := agd.NewMemStore()
	m, n, err := Import(context.Background(), store, "ds", strings.NewReader(importSample), ImportOptions{ChunkSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("imported %d records", n)
	}
	if m.SortedBy != "location" {
		t.Fatalf("SortedBy = %q", m.SortedBy)
	}
	if len(m.RefSeqs) != 2 || m.RefSeqs[0].Name != "chr1" || m.RefSeqs[1].Length != 500 {
		t.Fatalf("refs = %+v", m.RefSeqs)
	}
	if !m.HasColumn(agd.ColResults) {
		t.Fatal("no results column")
	}

	ds, err := agd.Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	results, err := ds.ReadAllResults()
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Location != 100 { // chr1:101 1-based → global 100
		t.Fatalf("r1 location = %d", results[0].Location)
	}
	if !results[1].IsReverse() || results[1].Location != 200 {
		t.Fatalf("r2 = %+v", results[1])
	}
	if !results[2].IsUnmapped() {
		t.Fatalf("r3 = %+v", results[2])
	}

	// Reverse-strand reads must come back out of AGD in as-sequenced
	// orientation: r2's stored bases are RC("ACGT") = "ACGT"... use the
	// export to confirm SAM-side fidelity instead.
	var out bytes.Buffer
	if _, err := Export(context.Background(), ds, &out); err != nil {
		t.Fatal(err)
	}
	sc := NewScanner(strings.NewReader(out.String()))
	var recs []Record
	for sc.Scan() {
		recs = append(recs, sc.Record())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("re-exported %d records", len(recs))
	}
	if recs[0].Seq != "ACGT" || recs[0].Pos != 101 {
		t.Fatalf("r1 re-export = %+v", recs[0])
	}
	// r2 was imported with SAM-oriented SEQ "ACGT"; re-export must produce
	// the same SAM-oriented SEQ and reversed qual.
	if recs[1].Seq != "ACGT" || recs[1].Qual != "ABCD" {
		t.Fatalf("r2 re-export = %+v", recs[1])
	}
	if recs[2].Flags&agd.FlagUnmapped == 0 {
		t.Fatalf("r3 re-export = %+v", recs[2])
	}
}

func TestImportSAMRejectsHeaderless(t *testing.T) {
	store := agd.NewMemStore()
	noSQ := "@HD\tVN:1.6\nr1\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII\n"
	if _, _, err := Import(context.Background(), store, "ds", strings.NewReader(noSQ), ImportOptions{}); err == nil {
		t.Fatal("headerless SAM imported")
	}
	if _, _, err := Import(context.Background(), store, "ds", strings.NewReader("@HD\tVN:1.6\n"), ImportOptions{}); err == nil {
		t.Fatal("record-less SAM imported")
	}
}

func TestReverseStrandSeqConvention(t *testing.T) {
	// A reverse alignment whose as-sequenced read is "AACC": SAM must carry
	// RC = "GGTT"; importing that SAM must restore "AACC" in AGD.
	refmap := NewRefMap([]agd.RefSeq{{Name: "chr1", Length: 1000}})
	res := agd.Result{Location: 10, Flags: agd.FlagReverse, MapQ: 60, Cigar: "4M"}
	rec, err := FromResult("r", "AACC", "ABCD", &res, refmap)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != "GGTT" {
		t.Fatalf("SAM seq = %q, want GGTT", rec.Seq)
	}
	if rec.Qual != "DCBA" {
		t.Fatalf("SAM qual = %q, want DCBA", rec.Qual)
	}
}

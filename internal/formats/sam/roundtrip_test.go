package sam_test

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"strings"
	"testing"

	"persona"
	"persona/internal/agd"
	"persona/internal/formats/sam"
	"persona/internal/testutil"
)

// TestSAMRoundTripGolden pins the exact SAM text of a small handcrafted
// dataset through SAM → AGD → SAM: the zero-allocation import/export
// rewrite must be byte-identical to the record-at-a-time one it replaced.
// The input covers the interesting shapes: forward, reverse-strand
// (SEQ/QUAL transformed both ways), unmapped, soft clips, and a proper pair
// with same-contig ("=") and cross-contig mates.
func TestSAMRoundTripGolden(t *testing.T) {
	const golden = "@HD\tVN:1.6\tSO:coordinate\n" +
		"@SQ\tSN:chr1\tLN:1000\n" +
		"@SQ\tSN:chr2\tLN:500\n" +
		"@PG\tID:persona\tPN:persona\n" +
		"fwd\t0\tchr1\t101\t60\t4M\t*\t0\t0\tACGT\tIIII\n" +
		"rev\t16\tchr1\t151\t37\t2S6M\t*\t0\t0\tGGTTACAA\tHGFEDCBA\n" +
		"un\t4\t*\t0\t0\t*\t*\t0\t0\tNNNN\t!!!!\n" +
		"p1\t99\tchr1\t201\t55\t4M\t=\t301\t104\tAAAA\tJJJJ\n" +
		"p2\t147\tchr1\t301\t55\t4M\t=\t201\t-104\tCCCC\tKKKK\n" +
		"x1\t65\tchr1\t401\t50\t4M\tchr2\t51\t0\tGGGG\tLLLL\n"

	store := agd.NewMemStore()
	_, n, err := persona.ImportSAM(context.Background(), store, "ds", strings.NewReader(golden), 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("imported %d records", n)
	}
	var out bytes.Buffer
	if _, err := persona.ExportSAM(context.Background(), store, "ds", &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != golden {
		t.Fatalf("round trip is not byte-identical:\n--- want ---\n%s--- got ---\n%s", golden, out.String())
	}
}

// TestExportGroupsMeta: a dataset stream of the four columns the exporters
// read names them in the order asked for and carries the manifest's
// references, sort order and record count (the header both export sinks
// render), and it yields every record of the dataset.
func TestExportGroupsMeta(t *testing.T) {
	store := agd.NewMemStore()
	f := testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 60_000, NumReads: 90, ReadLen: 60, ChunkSize: 40, Seed: 118,
	})
	in, err := f.Dataset.Groups(agd.StreamOptions{Columns: []string{agd.ColBases, agd.ColQual, agd.ColMetadata, agd.ColResults}})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	m := f.Dataset.Manifest
	if cols := []string{agd.ColBases, agd.ColQual, agd.ColMetadata, agd.ColResults}; !reflect.DeepEqual(in.Meta.Columns, cols) {
		t.Fatalf("columns = %v, want %v", in.Meta.Columns, cols)
	}
	if !reflect.DeepEqual(in.Meta.RefSeqs, m.RefSeqs) || in.Meta.SortedBy != m.SortedBy || in.Meta.NumRecords != 90 {
		t.Fatalf("stream meta = %+v, manifest refs %+v sorted %q", in.Meta, m.RefSeqs, m.SortedBy)
	}
	n, err := sam.ExportStream(context.Background(), in, io.Discard)
	if err != nil || n != 90 {
		t.Fatalf("stream exported %d records (%v), want 90", n, err)
	}
}

// TestSAMRoundTripFixture round-trips a realistic aligned dataset (SNAP
// alignments over a synthetic genome): export → import → export must be
// byte-identical, so the AGD encoding loses nothing SAM carries.
func TestSAMRoundTripFixture(t *testing.T) {
	store := agd.NewMemStore()
	testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 120_000, NumReads: 400, ReadLen: 80, ChunkSize: 64, Seed: 77,
	})
	var first bytes.Buffer
	if _, err := persona.ExportSAM(context.Background(), store, "ds", &first); err != nil {
		t.Fatal(err)
	}
	store2 := agd.NewMemStore()
	if _, _, err := persona.ImportSAM(context.Background(), store2, "ds2", bytes.NewReader(first.Bytes()), 64); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if _, err := persona.ExportSAM(context.Background(), store2, "ds2", &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("SAM → AGD → SAM round trip is not byte-identical")
	}
}

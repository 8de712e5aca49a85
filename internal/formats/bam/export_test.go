package bam_test

// The one-shot BAM export is a dataset source into ExportStream: the BAM
// header comes from the stream's metadata, the records from the same
// four-column walk the SAM export makes.

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"persona"
	"persona/internal/agd"
	"persona/internal/formats/bam"
	"persona/internal/formats/sam"
	"persona/internal/testutil"
)

// exportSAM covers forward, reverse-strand, unmapped, soft-clipped and
// paired records, same-contig and cross-contig mates, over two contigs.
const exportSAM = "@HD\tVN:1.6\tSO:coordinate\n" +
	"@SQ\tSN:chr1\tLN:1000\n" +
	"@SQ\tSN:chr2\tLN:500\n" +
	"@PG\tID:persona\tPN:persona\n" +
	"fwd\t0\tchr1\t101\t60\t4M\t*\t0\t0\tACGT\tIIII\n" +
	"rev\t16\tchr1\t151\t37\t2S6M\t*\t0\t0\tGGTTACAA\tHGFEDCBA\n" +
	"un\t4\t*\t0\t0\t*\t*\t0\t0\tNNNN\t!!!!\n" +
	"p1\t99\tchr1\t201\t55\t4M\t=\t301\t104\tAAAA\tJJJJ\n" +
	"p2\t147\tchr1\t301\t55\t4M\t=\t201\t-104\tCCCC\tKKKK\n" +
	"x1\t65\tchr1\t401\t50\t4M\tchr2\t51\t0\tGGGG\tLLLL\n"

// TestExportMatchesSAM: a dataset's BAM export carries the manifest's
// references and sort order, and decodes to exactly the records its SAM
// export prints.
func TestExportMatchesSAM(t *testing.T) {
	ctx := context.Background()
	store := agd.NewMemStore()
	if _, _, err := persona.ImportSAM(ctx, store, "ds", strings.NewReader(exportSAM), 4); err != nil {
		t.Fatal(err)
	}
	ds, err := agd.Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	var samOut, bamOut bytes.Buffer
	if _, err := persona.ExportSAM(ctx, store, "ds", &samOut); err != nil {
		t.Fatal(err)
	}
	n, err := persona.ExportBAM(ctx, store, "ds", &bamOut)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("exported %d records, want 6", n)
	}

	r, err := bam.NewReader(&bamOut)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Refs(), ds.Manifest.RefSeqs) {
		t.Fatalf("BAM refs = %+v, manifest has %+v", r.Refs(), ds.Manifest.RefSeqs)
	}
	if !strings.Contains(r.HeaderText(), "SO:coordinate") {
		t.Fatalf("BAM header lost the sort order:\n%s", r.HeaderText())
	}
	sc := sam.NewScanner(&samOut)
	i := 0
	for sc.Scan() {
		if !r.Scan() {
			t.Fatalf("BAM ends after %d records: %v", i, r.Err())
		}
		if got, want := r.Record(), sc.Record(); got != want {
			t.Fatalf("record %d:\nBAM %+v\nSAM %+v", i, got, want)
		}
		i++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Scan() {
		t.Fatalf("BAM has records past the SAM's %d: %+v", i, r.Record())
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestExportNeedsResults: an unaligned dataset is refused before a byte of
// BAM is written.
func TestExportNeedsResults(t *testing.T) {
	store := agd.NewMemStore()
	testutil.Build(t, store, "ds", testutil.Config{
		GenomeSize: 60_000, NumReads: 40, ReadLen: 60, ChunkSize: 20, Seed: 117, SkipAlign: true,
	})
	var out bytes.Buffer
	n, err := persona.ExportBAM(context.Background(), store, "ds", &out)
	if err == nil || !strings.Contains(err.Error(), "has no results column") {
		t.Fatalf("err = %v, want the missing results column named", err)
	}
	if n != 0 || out.Len() != 0 {
		t.Fatalf("wrote %d records, %d bytes before failing", n, out.Len())
	}
}

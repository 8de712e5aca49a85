package fastq

import (
	"bytes"
	"compress/gzip"
	"context"
	"strings"
	"testing"

	"persona/internal/agd"
	"persona/internal/genome"
	"persona/internal/reads"
)

const sample = "@read.1\nACGT\n+\nII@I\n@read.2\nTTTTT\n+\n!!!!!\n"

func TestScannerParsesRecords(t *testing.T) {
	sc := NewScanner(strings.NewReader(sample))
	var got []reads.Read
	for sc.Scan() {
		got = append(got, sc.Read())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d records, want 2", len(got))
	}
	if got[0].Meta != "read.1" || string(got[0].Bases) != "ACGT" || string(got[0].Quals) != "II@I" {
		t.Fatalf("record 0 = %+v", got[0])
	}
	if got[1].Meta != "read.2" || string(got[1].Bases) != "TTTTT" {
		t.Fatalf("record 1 = %+v", got[1])
	}
}

func TestScannerHandlesAtSignQuality(t *testing.T) {
	// '@' as the first quality character must not be mistaken for a new
	// record (the FASTQ pitfall the paper calls out in §2.2).
	in := "@r1\nAC\n+\n@@\n@r2\nGG\n+\nII\n"
	sc := NewScanner(strings.NewReader(in))
	count := 0
	for sc.Scan() {
		count++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("parsed %d records, want 2", count)
	}
}

func TestScannerErrors(t *testing.T) {
	cases := []string{
		"read.1\nACGT\n+\nIIII\n", // missing @
		"@r\nACGT\n-\nIIII\n",     // bad separator
		"@r\nACGT\n+\nII\n",       // length mismatch
		"@r\nACGT\n",              // truncated
	}
	for i, in := range cases {
		sc := NewScanner(strings.NewReader(in))
		for sc.Scan() {
		}
		if sc.Err() == nil {
			t.Errorf("case %d: malformed input accepted", i)
		}
	}
}

func TestWriterScannerRoundTrip(t *testing.T) {
	g, err := genome.Synthesize(genome.DefaultSyntheticConfig(20_000, 5))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := reads.NewSimulator(g, reads.SimConfig{Seed: 1, N: 100, ReadLen: 50})
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := sim.All()

	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range rs {
		if err := w.Write(&rs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	sc := NewScanner(&buf)
	i := 0
	for sc.Scan() {
		got := sc.Read()
		if got.Meta != rs[i].Meta || !bytes.Equal(got.Bases, rs[i].Bases) || !bytes.Equal(got.Quals, rs[i].Quals) {
			t.Fatalf("record %d mismatch", i)
		}
		i++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(rs) {
		t.Fatalf("round-tripped %d records, want %d", i, len(rs))
	}
}

func TestGzipScanner(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(sample)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err := NewGzipScanner(&buf)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for sc.Scan() {
		count++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("parsed %d records, want 2", count)
	}
}

func TestImportExportAGDRoundTrip(t *testing.T) {
	store := agd.NewMemStore()
	m, n, err := Import(context.Background(), store, "ds", strings.NewReader(sample), ImportOptions{ChunkSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(m.Chunks) != 2 {
		t.Fatalf("imported %d records in %d chunks", n, len(m.Chunks))
	}
	ds, err := agd.Open(store, "ds")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	en, err := Export(context.Background(), ds, &out)
	if err != nil {
		t.Fatal(err)
	}
	if en != 2 {
		t.Fatalf("exported %d records", en)
	}
	if out.String() != sample {
		t.Fatalf("export mismatch:\n%q\nwant\n%q", out.String(), sample)
	}
}

func TestImportRejectsMalformed(t *testing.T) {
	store := agd.NewMemStore()
	if _, _, err := Import(context.Background(), store, "ds", strings.NewReader("garbage\n"), ImportOptions{}); err == nil {
		t.Fatal("malformed FASTQ imported")
	}
}
